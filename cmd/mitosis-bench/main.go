// mitosis-bench regenerates the Mitosis paper's tables and figures on the
// simulated machine and benchmarks the simulator's own execution engine.
//
// Usage:
//
//	mitosis-bench [-ops N] [-seed S] [-quick] [-json DIR] [-policy LIST] [experiment ...]
//	mitosis-bench -replay FILE
//
// Experiments: fig1 fig3 fig4 fig6 fig9a fig9b fig10a fig10b fig11
// table4 table5 table6 ablations policy scenario virt tier hwcmp faults
// perf, or "all" (default).
//
// The perf target measures the simulator's own hot-path host throughput
// (simulated ops per wall-clock second) for the TLB-hit fast path, the
// TLB-miss walk path, the fault-storm populate path and the round-based
// engine on GUPS, writing the trajectory to BENCH_perf.json.
// -perf-baseline FILE additionally fills each row's baseline/speedup
// columns from a previous BENCH_perf.json and fails the run when any row
// regresses below (1 - perf-tolerance) x its baseline; the default
// tolerance (0.7) is deliberately generous — baselines travel between
// hosts, so only structural slowdowns should trip CI, not host noise.
//
// With -json DIR, every target additionally writes DIR/BENCH_<target>.json
// containing the wall-clock time of the target, the simulator throughput
// (for the engine benchmark), and the structured simulated-cycle results —
// the machine-readable perf trajectory tracked across commits. The policy
// target's records carry per-run policy names, replica-count timelines,
// remote-walk-cycle fractions and the exact declarative scenario each row
// was measured from, so BENCH_policy.json tracks replication-policy
// regressions. -policy restricts the policy target to a comma-separated
// subset of none,static,ondemand,costadaptive.
//
// The scenario target runs the canonical declarative scenario and embeds
// its full spec in BENCH_scenario.json; the virt target renders the
// virtualized Table 6 (§7.4 gPT/ePT replication ladder) and embeds the
// canonical policy-driven virtualized scenario in BENCH_virt.json the
// same way; the tier target renders the CXL recovery ladder and embeds
// the canonical tiered scenario in BENCH_tier.json; the hwcmp target
// runs the same GUPS workload across the x8664, x8664la57 and victima
// translation backends (stranded and replicated page-tables, MMU caches
// off) and embeds every cell's RunResult in BENCH_hw.json. -replay FILE
// re-executes the record found in FILE (a BENCH_scenario.json /
// BENCH_virt.json / BENCH_tier.json / BENCH_hw.json / BENCH_sweep.json /
// BENCH_churn.json record, or a bare mitosis.Scenario JSON) and — when
// the record carries counters — verifies the rerun reproduces them
// bit-for-bit.
//
// The churn target (opt-in, like sweep) runs the datacenter-churn
// multi-process fault storm under both the sharded per-process fault lock
// and the legacy global lock, reporting the host-throughput ratio and the
// simulated fault-latency tail (p50/p95/p99); -churn-baseline FILE
// compares against a committed BENCH_churn.json like -sweep-baseline.
//
// -cpuprofile FILE and -memprofile FILE write runtime/pprof profiles of
// the whole invocation for digging into simulator hot paths.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	mitosis "github.com/mitosis-project/mitosis-sim"
	"github.com/mitosis-project/mitosis-sim/internal/experiments"
)

// targetInfo describes one experiment target for -list and for upfront
// validation of requested target names.
type targetInfo struct {
	name string
	desc string
}

// targets is the registry of runnable experiments, in default run order
// (sweep is opt-in: it is not part of "all").
var targets = []targetInfo{
	{"fig1", "composite motivation summary: stranded tables vs replicated"},
	{"fig3", "page-table placement dump across sockets"},
	{"fig4", "remote page-walk fractions per configuration"},
	{"fig6", "multi-socket 4KB speedups over stranded baseline"},
	{"fig9a", "workload-migration slowdowns, 4KB pages"},
	{"fig9b", "workload-migration slowdowns, THP"},
	{"fig10a", "multi-socket Mitosis speedups, 4KB pages"},
	{"fig10b", "multi-socket Mitosis speedups, THP"},
	{"fig11", "TLB and page-walk breakdown under migration"},
	{"table4", "per-workload page-table sizes and replication overhead"},
	{"table5", "VMA-operation costs with and without replication"},
	{"table6", "virtualized gPT/ePT replication ladder"},
	{"ablations", "design ablations: propagation, 5-level, page cache, policies, async, virt"},
	{"policy", "runtime replication-policy comparison (none/static/ondemand/costadaptive)"},
	{"scenario", "canonical declarative scenario, replayable via BENCH_scenario.json"},
	{"virt", "virtualized table plus the canonical virt scenario record"},
	{"tier", "CXL tier recovery ladder plus the canonical tiered scenario record (BENCH_tier.json)"},
	{"hwcmp", "translation-backend comparison: x8664 vs la57 vs victima, replayable via BENCH_hw.json"},
	{"faults", "fault-injection kill-vs-recover ladder: MCE failover, node offlining, OOM, replayable via BENCH_fault.json"},
	{"perf", "simulator hot-path host-throughput trajectory (BENCH_perf.json)"},
	{"churn", "multi-process churn: sharded vs global fault lock + tail latency, replayable via BENCH_churn.json (not in \"all\")"},
	{"sweep", "fleet-scale pooled scenario grid, replayable via BENCH_sweep.json (not in \"all\")"},
}

// optInTargets is the count of trailing registry entries excluded from
// "all": churn and sweep have their own records and CI jobs.
const optInTargets = 2

func knownTarget(name string) bool {
	for _, t := range targets {
		if t.name == name {
			return true
		}
	}
	return false
}

func targetNames() []string {
	names := make([]string, len(targets))
	for i, t := range targets {
		names[i] = t.name
	}
	return names
}

func main() {
	os.Exit(realMain())
}

// realMain is main's body returning the process exit code: the
// -cpuprofile/-memprofile defers must run before os.Exit, which a plain
// os.Exit inside main would skip.
func realMain() int {
	ops := flag.Int("ops", 0, "measured operations per thread (0 = default)")
	seed := flag.Int64("seed", 0, "random seed (0 = default)")
	quick := flag.Bool("quick", false, "reduced scale smoke run (shapes not meaningful); for sweep: the 64-cell quick grid")
	jsonDir := flag.String("json", "", "directory for machine-readable BENCH_<target>.json output (empty = off)")
	policyList := flag.String("policy", "", "comma-separated replication policies for the policy target (empty = all)")
	replay := flag.String("replay", "", "replay the record in FILE (BENCH_scenario.json, BENCH_sweep.json or bare scenario JSON) and verify counters")
	replayCell := flag.Int("cell", -1, "with -replay on a sweep record: replay only this cell index (-1 = all cells)")
	perfBaseline := flag.String("perf-baseline", "", "BENCH_perf.json to compare the perf target against (fills baseline columns, fails on regression)")
	perfTolerance := flag.Float64("perf-tolerance", 0.7, "allowed fractional throughput drop vs -perf-baseline before the perf target fails")
	list := flag.Bool("list", false, "list experiment targets with descriptions and exit")
	cells := flag.Int("cells", 0, "sweep: truncate the grid to its first N cells (0 = all)")
	workers := flag.Int("workers", 0, "sweep: worker-pool size (0 = host CPU count)")
	serial := flag.Bool("serial", false, "sweep: also run the serial fresh-build loop for the speedup figure (doubles runtime)")
	sweepBaseline := flag.String("sweep-baseline", "", "BENCH_sweep.json to compare the sweep target's throughput against (fails on regression)")
	sweepTolerance := flag.Float64("sweep-tolerance", 0.7, "allowed fractional throughput drop vs -sweep-baseline before the sweep target fails")
	churnBaseline := flag.String("churn-baseline", "", "BENCH_churn.json to compare the churn target's throughput against (fails on regression)")
	churnTolerance := flag.Float64("churn-tolerance", 0.7, "allowed fractional throughput drop vs -churn-baseline before the churn target fails")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to FILE")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (taken at exit) to FILE")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mitosis-bench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "mitosis-bench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mitosis-bench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live allocations, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "mitosis-bench: -memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		for _, t := range targets {
			fmt.Printf("  %-10s %s\n", t.name, t.desc)
		}
		return 0
	}

	if *replay != "" {
		if err := runReplay(*replay, *replayCell); err != nil {
			fmt.Fprintf(os.Stderr, "mitosis-bench: replay: %v\n", err)
			return 1
		}
		return 0
	}

	cfg := experiments.Config{Ops: *ops, Seed: *seed}
	if *quick {
		cfg = experiments.Quick()
		if *ops != 0 {
			cfg.Ops = *ops
		}
	}
	var policies []string
	if *policyList != "" {
		known := experiments.PolicyComparisonNames()
		for _, name := range strings.Split(*policyList, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if !slices.Contains(known, name) {
				fmt.Fprintf(os.Stderr, "mitosis-bench: unknown policy %q (have %v)\n", name, known)
				return 2
			}
			policies = append(policies, name)
		}
	}

	requested := flag.Args()
	if len(requested) == 0 || (len(requested) == 1 && requested[0] == "all") {
		// Everything except the opt-in tail targets (churn, sweep), which
		// have their own records and CI jobs.
		requested = targetNames()[:len(targets)-optInTargets]
	} else {
		// Reject unknown names before running anything: a typo must not
		// cost a half-completed multi-target run.
		for _, name := range requested {
			if !knownTarget(name) {
				fmt.Fprintf(os.Stderr, "mitosis-bench: unknown experiment %q; valid targets: %s (or \"all\"; see -list)\n",
					name, strings.Join(targetNames(), " "))
				return 2
			}
		}
	}

	sweepOpt := experiments.SweepOptions{
		Quick:   *quick,
		Cells:   *cells,
		Workers: *workers,
		Serial:  *serial,
	}
	churnOpt := experiments.ChurnOptions{
		Quick:   *quick,
		Workers: *workers,
	}

	for _, target := range requested {
		start := time.Now()
		out, payload, err := run(cfg, target, policies, sweepOpt, churnOpt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mitosis-bench: %s: %v\n", target, err)
			return 1
		}
		wall := time.Since(start)
		if target == "perf" && *perfBaseline != "" {
			pb := payload.(*experiments.PerfBench)
			if err := comparePerf(pb, *perfBaseline, *perfTolerance); err != nil {
				fmt.Fprintf(os.Stderr, "mitosis-bench: perf: %v\n", err)
				return 1
			}
			out = pb.String()
		}
		if target == "sweep" && *sweepBaseline != "" {
			sb := payload.(*experiments.SweepBench)
			if err := compareSweep(sb, *sweepBaseline, *sweepTolerance); err != nil {
				fmt.Fprintf(os.Stderr, "mitosis-bench: sweep: %v\n", err)
				return 1
			}
			out = sb.String()
		}
		if target == "churn" && *churnBaseline != "" {
			cb := payload.(*experiments.ChurnBench)
			if err := compareChurn(cb, *churnBaseline, *churnTolerance); err != nil {
				fmt.Fprintf(os.Stderr, "mitosis-bench: churn: %v\n", err)
				return 1
			}
			out = cb.String()
		}
		fmt.Println(out)
		fmt.Printf("[%s completed in %v]\n\n", target, wall.Round(time.Millisecond))
		if *jsonDir != "" {
			if err := writeJSON(*jsonDir, target, cfg, *policyList, wall, payload); err != nil {
				fmt.Fprintf(os.Stderr, "mitosis-bench: %s: writing json: %v\n", target, err)
				return 1
			}
		}
	}
	return 0
}

// textResult wraps targets whose natural output is formatted text.
type textResult struct {
	Text string `json:"text"`
}

// benchRecord is the machine-readable per-target output.
type benchRecord struct {
	Target  string             `json:"target"`
	Config  experiments.Config `json:"config"`
	WallSec float64            `json:"wall_sec"`
	// Policy is the -policy selection the run used (empty = all built-in
	// policies); the policy target's Result rows carry the per-run policy
	// name, replica-count timeline and remote-walk-cycle fraction.
	Policy string `json:"policy,omitempty"`
	// Result carries the target's structured simulated-cycle output
	// (figure bars, table rows, or the engine benchmark record).
	Result any `json:"result"`
}

func writeJSON(dir, target string, cfg experiments.Config, policy string, wall time.Duration, payload any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := benchRecord{Target: target, Config: cfg, WallSec: wall.Seconds(), Policy: policy, Result: payload}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	// hwcmp's record is the hardware comparison, named for what it holds;
	// the faults target's record is the singular fault ladder.
	name := target
	switch target {
	case "hwcmp":
		name = "hw"
	case "faults":
		name = "fault"
	}
	path := filepath.Join(dir, "BENCH_"+name+".json")
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// run executes one target, returning its human-readable output plus the
// structured payload for -json.
func run(cfg experiments.Config, target string, policies []string, sweepOpt experiments.SweepOptions, churnOpt experiments.ChurnOptions) (string, any, error) {
	switch target {
	case "sweep":
		sb, err := experiments.RunSweep(sweepOpt)
		return str(sb, err)
	case "churn":
		cb, err := experiments.RunChurn(churnOpt)
		return str(cb, err)
	case "fig1":
		out, err := experiments.RunFig1(cfg)
		// fig1/fig3 are genuinely textual (composite summary, PT dump);
		// wrap them so every BENCH_*.json result is a JSON object.
		return out, textResult{Text: out}, err
	case "fig3":
		out, err := experiments.RunFig3(cfg)
		return out, textResult{Text: out}, err
	case "fig4":
		t, err := experiments.RunFig4(cfg)
		return str(t, err)
	case "fig6":
		f, err := experiments.RunFig6(cfg)
		return str(f, err)
	case "fig9a":
		f, err := experiments.RunFig9(cfg, false)
		return str(f, err)
	case "fig9b":
		f, err := experiments.RunFig9(cfg, true)
		return str(f, err)
	case "fig10a":
		f, err := experiments.RunFig10(cfg, false)
		return str(f, err)
	case "fig10b":
		f, err := experiments.RunFig10(cfg, true)
		return str(f, err)
	case "fig11":
		f, err := experiments.RunFig11(cfg)
		return str(f, err)
	case "table4":
		t := experiments.RunTable4()
		return t.String(), t, nil
	case "table5":
		t, err := experiments.RunTable5(cfg)
		return str(t, err)
	case "table6":
		t, err := experiments.RunTable6(cfg)
		return str(t, err)
	case "perf":
		r, err := experiments.RunPerfBench(cfg)
		return str(r, err)
	case "policy":
		pc, err := experiments.RunPolicyComparison(cfg, policies)
		return str(pc, err)
	case "scenario":
		sr, err := experiments.RunScenario(cfg)
		return str(sr, err)
	case "virt":
		// The human-readable half is the §7.4 replication-ladder table;
		// the JSON payload is the canonical policy-driven virtualized
		// scenario's RunResult, replayable like BENCH_scenario.json.
		t, err := experiments.RunVirtTable6(cfg)
		if err != nil {
			return "", nil, err
		}
		vr, err := experiments.RunVirtScenario(cfg)
		if err != nil {
			return "", nil, err
		}
		return t.String() + "\n" + vr.String(), vr, nil
	case "hwcmp":
		// The payload carries one complete RunResult per backend x
		// placement cell; -replay BENCH_hw.json re-executes every cell on
		// its recorded backend and verifies counters bit-for-bit.
		hr, err := experiments.RunHwCompare(cfg)
		return str(hr, err)
	case "faults":
		// The payload is the kill-vs-recover ladder; every rung embeds its
		// full RunResult, so -replay BENCH_fault.json re-executes each one
		// and verifies counters and fault outcomes bit-for-bit.
		fb, err := experiments.RunFaultBench(cfg)
		return str(fb, err)
	case "tier":
		// Same shape as virt: the human-readable half is the CXL recovery
		// ladder, the JSON payload the canonical tiered scenario's
		// RunResult, replayable like BENCH_scenario.json.
		t, err := experiments.RunTierTable(cfg)
		if err != nil {
			return "", nil, err
		}
		tr, err := experiments.RunTierScenario(cfg)
		if err != nil {
			return "", nil, err
		}
		return t.String() + "\n" + tr.String(), tr, nil
	case "ablations":
		out := ""
		var payloads []any
		for _, f := range []func(experiments.Config) (fmt.Stringer, error){
			wrap(experiments.RunAblationPropagation),
			wrap(experiments.RunAblationFiveLevel),
			wrap(experiments.RunAblationPageCache),
			wrap(experiments.RunAblationAutoPolicy),
			wrap(experiments.RunAblationAsyncReplication),
			wrap(experiments.RunAblationVirtualization),
		} {
			s, err := f(cfg)
			if err != nil {
				return "", nil, err
			}
			out += s.String() + "\n"
			payloads = append(payloads, s)
		}
		return out, payloads, nil
	default:
		return "", nil, fmt.Errorf("unknown experiment %q", target)
	}
}

// comparePerf fills pb's baseline columns from the BENCH_perf.json at
// path and fails when any row regressed beyond tolerance.
func comparePerf(pb *experiments.PerfBench, path string, tolerance float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rec struct {
		Result experiments.PerfBench `json:"result"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if len(rec.Result.Rows) == 0 {
		return fmt.Errorf("%s carries no perf rows", path)
	}
	pb.ApplyBaseline(&rec.Result)
	if errs := pb.Compare(&rec.Result, tolerance); len(errs) > 0 {
		msgs := make([]string, len(errs))
		for i, e := range errs {
			msgs[i] = e.Error()
		}
		return fmt.Errorf("throughput regressed vs %s:\n  %s", path, strings.Join(msgs, "\n  "))
	}
	return nil
}

// compareSweep fills sb's baseline column from the BENCH_sweep.json at
// path and fails when the pooled throughput regressed beyond tolerance.
func compareSweep(sb *experiments.SweepBench, path string, tolerance float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rec struct {
		Result experiments.SweepBench `json:"result"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	sb.ApplyBaseline(&rec.Result)
	if err := sb.Compare(&rec.Result, tolerance); err != nil {
		return fmt.Errorf("vs %s: %w", path, err)
	}
	return nil
}

// compareChurn fills cb's baseline column from the BENCH_churn.json at
// path and fails when the sharded throughput regressed beyond tolerance.
func compareChurn(cb *experiments.ChurnBench, path string, tolerance float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rec struct {
		Result experiments.ChurnBench `json:"result"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	cb.ApplyBaseline(&rec.Result)
	if err := cb.Compare(&rec.Result, tolerance); err != nil {
		return fmt.Errorf("vs %s: %w", path, err)
	}
	return nil
}

// runReplay re-executes a serialized record. A BENCH_scenario.json record
// carries the original counters, which the rerun must reproduce
// bit-for-bit (the scenario API's determinism contract); a
// BENCH_sweep.json record is replayed cell-by-cell from its spec (cell
// selects a single cell index, -1 replays every recorded cell); a bare
// scenario JSON just runs and prints its result.
func runReplay(path string, cell int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// A bench record is an object with a "result" key; anything else is
	// treated as a bare scenario spec. Probing the shape first keeps the
	// real decode error (e.g. a scenario version mismatch) visible
	// instead of falling through to a misleading fallback failure.
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	raw, isRecord := probe["result"]
	if !isRecord {
		var sc mitosis.Scenario
		if err := json.Unmarshal(data, &sc); err != nil {
			return fmt.Errorf("%s is not a scenario spec: %w", path, err)
		}
		rr, err := mitosis.Run(sc)
		if err != nil {
			return err
		}
		fmt.Printf("replayed scenario %q: %d phases, %d replica PT pages (no recorded counters to verify)\n",
			rr.Scenario.Name, len(rr.Phases), rr.ReplicaPTPages)
		return nil
	}
	// A sweep record's result carries a "sweep" key (the SweepResult);
	// scenario records carry a "scenario" key instead, so the probe is
	// unambiguous.
	var sweepProbe struct {
		Sweep *mitosis.SweepResult `json:"sweep"`
	}
	if err := json.Unmarshal(raw, &sweepProbe); err == nil && sweepProbe.Sweep != nil && len(sweepProbe.Sweep.Cells) > 0 {
		return replaySweep(path, sweepProbe.Sweep, cell)
	}
	// A churn record's result carries a "churn" key holding the full
	// ChurnResult (whose Spawned count is always positive on a record).
	var churnProbe struct {
		Churn *mitosis.ChurnResult `json:"churn"`
	}
	if err := json.Unmarshal(raw, &churnProbe); err == nil && churnProbe.Churn != nil && churnProbe.Churn.Spawned > 0 {
		return replayChurn(churnProbe.Churn)
	}
	// A fault record's result carries a "ladder" array, each rung embedding
	// a complete RunResult whose scenario schedules the rung's fault plan;
	// every rung replays like a scenario record, fault outcome included.
	var faultProbe struct {
		Ladder []struct {
			Cell   string             `json:"cell"`
			Result *mitosis.RunResult `json:"result"`
		} `json:"ladder"`
	}
	if err := json.Unmarshal(raw, &faultProbe); err == nil && len(faultProbe.Ladder) > 0 {
		for i, r := range faultProbe.Ladder {
			if r.Result == nil || len(r.Result.Scenario.Processes) == 0 {
				return fmt.Errorf("%s: ladder cell %d (%s) carries no scenario", path, i, r.Cell)
			}
			if err := replayRunResult(r.Result); err != nil {
				return fmt.Errorf("ladder cell %d (%s): %w", i, r.Cell, err)
			}
		}
		fmt.Printf("replay OK: fault ladder reproduced %d rung(s) bit-identically\n", len(faultProbe.Ladder))
		return nil
	}
	// A hardware-comparison record's result carries a "runs" array, each
	// entry a complete RunResult; every cell replays on its recorded
	// backend like a scenario record.
	var hwProbe struct {
		Runs []struct {
			Hardware string             `json:"hardware"`
			Config   string             `json:"config"`
			Result   *mitosis.RunResult `json:"result"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(raw, &hwProbe); err == nil && len(hwProbe.Runs) > 0 {
		for _, r := range hwProbe.Runs {
			if r.Result == nil || len(r.Result.Scenario.Processes) == 0 {
				return fmt.Errorf("%s: run %s/%s carries no scenario", path, r.Hardware, r.Config)
			}
			if err := replayRunResult(r.Result); err != nil {
				return fmt.Errorf("run %s/%s: %w", r.Hardware, r.Config, err)
			}
		}
		fmt.Printf("replay OK: hardware comparison reproduced %d run(s) bit-identically\n", len(hwProbe.Runs))
		return nil
	}
	var orig mitosis.RunResult
	if err := json.Unmarshal(raw, &orig); err != nil {
		return fmt.Errorf("%s: decoding recorded result: %w", path, err)
	}
	if len(orig.Scenario.Processes) == 0 {
		return fmt.Errorf("%s: record carries no scenario; replay supports BENCH_scenario.json, BENCH_sweep.json (or a bare scenario spec)", path)
	}
	if err := replayRunResult(&orig); err != nil {
		return err
	}
	fmt.Printf("replay OK: scenario %q reproduced %d phases bit-identically (engine %s)\n",
		orig.Scenario.Name, len(orig.Phases), orig.Engine)
	return nil
}

// replayRunResult reruns a recorded RunResult's embedded scenario with
// its recorded round length and verifies every deterministic field
// reproduces bit-for-bit. The Hardware echo is
// informational and not compared — the scenario spec itself pins the
// backend the rerun boots.
func replayRunResult(orig *mitosis.RunResult) error {
	// The round length is part of the record: the chunk is the modeled
	// coherence latency, so a replay must reuse it. The recorded engine
	// name is not: every engine mode produced the same counters.
	rr, err := mitosis.Run(orig.Scenario, mitosis.WithChunk(orig.Chunk))
	if err != nil {
		return err
	}
	// Each comparison names the first differing counter and both values:
	// a divergence report must say *which* counter broke, not just that
	// one did.
	for _, c := range []struct {
		what      string
		got, want any
	}{
		{"phases", rr.Phases, orig.Phases},
		{"policies", rr.Policies, orig.Policies},
		{"tiering", rr.Tiering, orig.Tiering},
		{"faults", rr.Faults, orig.Faults},
	} {
		if d := divergence(c.got, c.want); d != "" {
			if !strings.HasPrefix(d, "[") {
				d = "." + d
			}
			return fmt.Errorf("replay of %q diverged from the record at %s%s",
				orig.Scenario.Name, c.what, d)
		}
	}
	if rr.ReplicaPTPages != orig.ReplicaPTPages {
		return fmt.Errorf("replay of %q diverged: replica PT pages %d, recorded %d",
			orig.Scenario.Name, rr.ReplicaPTPages, orig.ReplicaPTPages)
	}
	return nil
}

// replayChurn reruns the recorded churn spec and verifies the rerun
// reproduces every deterministic field — counters, counts and the full
// fault-latency histogram — bit-for-bit. Host-side throughput is expected
// to differ and is not compared.
func replayChurn(rec *mitosis.ChurnResult) error {
	got, err := mitosis.RunChurn(rec.Churn)
	if err != nil {
		return err
	}
	if !got.DeterministicEquals(rec) {
		return fmt.Errorf("replay of churn %q diverged from the record\nrecorded: spawned=%d ops=%d faults=%d cycles=%d p50=%d p95=%d p99=%d\nreplayed: spawned=%d ops=%d faults=%d cycles=%d p50=%d p95=%d p99=%d",
			rec.Churn.Name,
			rec.Spawned, rec.Ops, rec.Faults, rec.Cycles, rec.P50, rec.P95, rec.P99,
			got.Spawned, got.Ops, got.Faults, got.Cycles, got.P50, got.P95, got.P99)
	}
	fmt.Printf("replay OK: churn %q reproduced %d faults bit-identically (p99 %d sim cycles)\n",
		rec.Churn.Name, rec.Faults, rec.P99)
	return nil
}

// replaySweep regenerates cells from the recorded sweep spec and verifies
// each rerun reproduces the recorded outcome bit-for-bit. With cell >= 0
// only that cell index is replayed; otherwise every recorded cell is.
func replaySweep(path string, rec *mitosis.SweepResult, cell int) error {
	cellsToCheck := rec.Cells
	if cell >= 0 {
		i := slices.IndexFunc(rec.Cells, func(c mitosis.CellResult) bool { return c.Index == cell })
		if i < 0 {
			return fmt.Errorf("%s: record holds no cell with index %d (it records %d cells)", path, cell, len(rec.Cells))
		}
		cellsToCheck = rec.Cells[i : i+1]
	}
	for _, want := range cellsToCheck {
		got, err := rec.Sweep.ReplayCell(want.Index)
		if err != nil {
			return fmt.Errorf("cell %d: %w", want.Index, err)
		}
		if got.Name != want.Name {
			return fmt.Errorf("cell %d regenerated as %q, recorded as %q — the sweep spec does not match its cells", want.Index, got.Name, want.Name)
		}
		if got.Error != want.Error {
			return fmt.Errorf("replay of cell %d (%s) diverged: error %q, recorded %q", want.Index, want.Name, got.Error, want.Error)
		}
		if d := divergence(got.Outcome, want.Outcome); d != "" {
			return fmt.Errorf("replay of cell %d (%s) diverged at %s", want.Index, want.Name, d)
		}
	}
	fmt.Printf("replay OK: sweep %q reproduced %d cell(s) bit-identically\n", rec.Sweep.Name, len(cellsToCheck))
	return nil
}

func str[T fmt.Stringer](s T, err error) (string, any, error) {
	if err != nil {
		return "", nil, err
	}
	return s.String(), s, nil
}

func wrap[T fmt.Stringer](f func(experiments.Config) (T, error)) func(experiments.Config) (fmt.Stringer, error) {
	return func(cfg experiments.Config) (fmt.Stringer, error) {
		t, err := f(cfg)
		return t, err
	}
}
