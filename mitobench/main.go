// Command mitobench is mitosis-sim's benchmark of record. It drives the
// simulator through its public entry points (mitosis.Run, mitosis.RunChurn)
// on one of four workloads, checks every run's deterministic results
// against a digest, and prints one JSON result line.
//
// With -trace 0 it reports the end-to-end metrics: simulated ops per host
// second, wall and set-up time, peak heap and simulated cycles per op. With
// -trace 1 it reports the per-layer metrics of a traced run that makes the
// facade's calls into each layer itself and times them; the traced run
// must reproduce the untraced run's results bit for bit.
//
// Run it from the repository root with bash mitobench/run.sh, which builds
// it into .bench_build:
//
//	bash mitobench/run.sh --workload tlb-hit --seed 1 --seconds 20 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"time"

	mitosis "github.com/mitosis-project/mitosis-sim"
)

// expectedJSON records each workload's result digest for the recorded seeds.
//
//go:embed expected.json
var expectedJSON []byte

// expectedDigests is the parsed expected.json.
type expectedDigests struct {
	// DefaultSeed is the seed changes are developed against; ConfirmSeed
	// is kept back to confirm a claim on inputs it was not tuned on.
	DefaultSeed int64 `json:"default_seed"`
	ConfirmSeed int64 `json:"confirm_seed"`
	// Digests maps seed -> workload -> digest.
	Digests map[string]map[string]string `json:"digests"`
}

// minCalls is the fewest calls a run makes, however short its time budget.
const minCalls = 3

// setupShare is the share of each call's wall time spent on set-up probes
// after it. Set-up is short next to a whole call, so it takes several
// probes per call for its median to settle.
const setupShare = 0.25

// options configures one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     sizes
	// expected is the digest recorded for this workload and seed; empty
	// when the seed is not recorded.
	expected string
	// log receives progress and the human-readable report.
	log io.Writer
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: tlb-hit, walk-gups, churn-storm or tiered-failover")
		seed    = flag.Int64("seed", 0, "input seed")
		seconds = flag.Float64("seconds", 20, "measuring time")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of the traced run")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "mitobench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	var exp expectedDigests
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		fmt.Fprintf(os.Stderr, "mitobench: expected.json: %v\n", err)
		os.Exit(1)
	}
	opt := options{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		size:     fullSize,
		expected: exp.Digests[strconv.FormatInt(*seed, 10)][*name],
		log:      os.Stdout,
	}
	printStamp(os.Stdout)
	rep, err := run(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mitobench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mitobench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes the benchmark: calls of the workload until the time is up,
// each checked against the digest.
func run(opt options) (*report, error) {
	w, err := newWorkload(opt.workload, opt.seed, opt.size)
	if err != nil {
		return nil, err
	}
	rep := &report{Metrics: make(map[string]metric)}
	chk := &digestCheck{expected: opt.expected, log: opt.log}
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	if opt.trace {
		runTraced(w, chk, deadline, rep)
	} else {
		runUntraced(w, chk, deadline, rep)
	}
	rep.Attempted, rep.Failed = chk.attempted, chk.failed
	rep.Correct = chk.failed == 0
	fmt.Fprintf(opt.log, "# %s seed %d trace %v: digest %s, %d calls, %d failed, fail_frac %.4g\n",
		opt.workload, opt.seed, opt.trace, chk.first, chk.attempted, chk.failed, ratio(float64(chk.failed), float64(chk.attempted)))
	for _, k := range sortedKeys(rep.Metrics) {
		fmt.Fprintf(opt.log, "#   %-36s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	return rep, nil
}

// digestCheck counts calls and failures. A call fails when it errors or
// when its digest differs from the recorded one, from the run's first
// digest, or (for traced calls) from the untraced call's.
type digestCheck struct {
	expected  string
	first     string
	attempted int
	failed    int
	log       io.Writer
}

// check records one call's outcome and reports whether it succeeded.
// untraced is the untraced call's digest a traced call must equal, or "".
func (c *digestCheck) check(what, digest string, err error, untraced string) bool {
	c.attempted++
	if err == nil && c.first == "" {
		c.first = digest
	}
	var why string
	switch {
	case err != nil:
		why = err.Error()
	case c.expected != "" && digest != c.expected:
		why = fmt.Sprintf("digest %s, recorded %s", digest, c.expected)
	case digest != c.first:
		why = fmt.Sprintf("digest %s, first call %s", digest, c.first)
	case untraced != "" && digest != untraced:
		why = fmt.Sprintf("digest %s, untraced %s", digest, untraced)
	default:
		return true
	}
	c.fail(what, why)
	return false
}

// fail logs and counts a failed call whose attempt is already counted.
func (c *digestCheck) fail(what, why string) {
	fmt.Fprintf(c.log, "# FAIL %s: %s\n", what, why)
	c.failed++
}

// runUntraced measures the end-to-end metrics: untraced calls, each
// followed by set-up probes, until the deadline.
func runUntraced(w *workload, chk *digestCheck, deadline time.Time, rep *report) {
	var opsPerS, wall, setup, heap, cycPerOp []float64
	for i := 0; i < minCalls || time.Now().Before(deadline); i++ {
		s, err := untracedCall(w)
		if !chk.check(fmt.Sprintf("call %d", i), s.digest, err, "") {
			continue
		}
		opsPerS = append(opsPerS, ratio(float64(s.ops), s.simSec))
		wall = append(wall, s.wall)
		heap = append(heap, s.peakHeap)
		cycPerOp = append(cycPerOp, ratio(float64(s.cycles), float64(s.ops)))
		for probed := 0.0; probed == 0 || probed < setupShare*s.wall; {
			start := time.Now()
			st, err := setupCall(w)
			probed += time.Since(start).Seconds()
			if err != nil {
				// A probe is not one of the workload's calls and carries
				// no digest, so only a failing one counts as attempted.
				chk.attempted++
				chk.fail(fmt.Sprintf("set-up probe after call %d", i), err.Error())
				break
			}
			setup = append(setup, st)
		}
	}
	rep.Metrics["sim_ops_per_s"] = metric{median(opsPerS), "ops/s"}
	rep.Metrics["wall_s"] = metric{median(wall), "s"}
	rep.Metrics["setup_s"] = metric{median(setup), "s"}
	rep.Metrics["peak_heap_mb"] = metric{median(heap), "MB"}
	rep.Metrics["sim_cycles_per_op"] = metric{median(cycPerOp), "cycles/op"}
}

// runTraced measures the per-layer metrics: pairs of an untraced and a
// traced call, plus the traced call on every other translation backend,
// until the deadline.
func runTraced(w *workload, chk *digestCheck, deadline time.Time, rep *report) {
	t := newTracer()
	backends := make(map[string]*tracer)
	// Other backends model other hardware, so their results have no
	// recorded digest; they must still repeat within the run.
	backendChecks := make(map[string]*digestCheck)
	var untracedNS []float64
	for i := 0; i < minCalls || time.Now().Before(deadline); i++ {
		s, err := untracedCall(w)
		if !chk.check(fmt.Sprintf("untraced call %d", i), s.digest, err, "") {
			continue
		}
		untracedNS = append(untracedNS, s.wall*1e9)
		d, err := tracedCall(w, t)
		chk.check(fmt.Sprintf("traced call %d", i), d, err, s.digest)
		for _, b := range w.backends {
			if backends[b] == nil {
				backends[b] = newTracer()
				backendChecks[b] = &digestCheck{log: chk.log}
			}
			d, err := tracedScenario(withBackend(*w.scenario, b), backends[b])
			backendChecks[b].check(fmt.Sprintf("%s call %d", b, i), d, err, "")
		}
	}
	for _, c := range backendChecks {
		chk.attempted += c.attempted
		chk.failed += c.failed
	}
	layerMetrics(t, rep)
	// Every workload runs on the default x86-64 backend; the others are
	// measured only where the workload lists them.
	for _, b := range mitosis.HardwareBackends() {
		bt := backends[b]
		if b == mitosis.HardwareX8664 {
			bt = t
		}
		v := 0.0
		if bt != nil {
			v = ratio(float64(bt.measuredAccessNS), float64(bt.measuredOps))
		}
		rep.Metrics["hw.access_ns_per_op."+b] = metric{v, "ns/op"}
	}
	rep.Metrics["trace.overhead_frac"] = metric{ratio(median(t.callNS), median(untracedNS)) - 1, "fraction"}
}
