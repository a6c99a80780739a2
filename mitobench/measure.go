package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	mitosis "github.com/mitosis-project/mitosis-sim"
)

// sample is one untraced call's end-to-end figures.
type sample struct {
	wall     float64 // s, the whole call
	simSec   float64 // s, host time of the measured phases (churn: storm)
	ops      uint64  // simulated ops in the measured phases
	cycles   uint64  // simulated cycles summed over cores, measured phases
	peakHeap float64 // MB, largest live heap seen during the call
	digest   string
}

// scenarioDigest hashes a run's deterministic results: every phase's
// counters, the policy, tiering and fault outcomes with their action logs,
// and the replica page count.
func scenarioDigest(rr *mitosis.RunResult) string {
	return hashJSON(struct {
		Phases         []mitosis.PhaseResult
		Policies       []mitosis.PolicyOutcome
		Tiering        []mitosis.TierOutcome
		Faults         *mitosis.FaultOutcome
		ReplicaPTPages uint64
	}{rr.Phases, rr.Policies, rr.Tiering, rr.Faults, rr.ReplicaPTPages})
}

// churnDigest hashes the fields ChurnResult.DeterministicEquals compares.
func churnDigest(r *mitosis.ChurnResult) string {
	return hashJSON(struct {
		Spawned, Exited     int
		Ops, Faults         uint64
		Cycles, FaultCycles uint64
		FaultHist           []uint64
		P50, P95, P99       uint64
	}{r.Spawned, r.Exited, r.Ops, r.Faults, r.Cycles, r.FaultCycles, r.FaultHist, r.P50, r.P95, r.P99})
}

func hashJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("digest: %v", err)) // plain structs of numbers and strings always marshal
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// measuredTotals sums the measured (non-warm-up) phases' ops and cycles.
func measuredTotals(rr *mitosis.RunResult) (ops, cycles uint64) {
	for _, ph := range rr.Phases {
		if !ph.Warmup {
			ops += ph.Counters.Ops
			cycles += ph.Counters.TotalCycles
		}
	}
	return ops, cycles
}

// heapSampler polls the live heap while a call runs.
type heapSampler struct {
	stop chan struct{}
	done chan float64
}

// heapPollEvery is the live-heap polling period: the heap only changes at
// the end of a GC cycle, which is far rarer.
const heapPollEvery = 5 * time.Millisecond

// liveHeap reads the heap the last GC cycle marked live, in bytes.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// startHeapSampler collects garbage, so the call starts from the same
// heap every time, and starts polling.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan float64)}
	go func() {
		tick := time.NewTicker(heapPollEvery)
		defer tick.Stop()
		peak := liveHeap()
		for {
			select {
			case <-h.stop:
				h.done <- float64(max(peak, liveHeap())) / (1 << 20)
				return
			case <-tick.C:
				peak = max(peak, liveHeap())
			}
		}
	}()
	return h
}

// finish stops polling and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	return <-h.done
}

// phaseClock records, per process, the host time of the last round barrier
// the run observer saw in a warm-up and in a measured phase. The phases of
// a process run back to back, so the measured phases take the time between
// the two.
type phaseClock struct {
	warmup     map[string]map[string]bool // process -> phase -> is warm-up
	first      time.Time
	lastWarmup map[string]time.Time
	lastMeas   map[string]time.Time
}

func newPhaseClock(sc *mitosis.Scenario) *phaseClock {
	c := &phaseClock{
		warmup:     make(map[string]map[string]bool),
		lastWarmup: make(map[string]time.Time),
		lastMeas:   make(map[string]time.Time),
	}
	for _, p := range sc.Processes {
		c.warmup[p.Name] = make(map[string]bool)
		for _, ph := range p.Phases {
			c.warmup[p.Name][ph.Name] = ph.Warmup
		}
	}
	return c
}

// RoundTick implements mitosis.Observer.
func (c *phaseClock) RoundTick(ev mitosis.TickEvent) {
	now := time.Now()
	if c.first.IsZero() {
		c.first = now
	}
	if c.warmup[ev.Process][ev.Phase] {
		c.lastWarmup[ev.Process] = now
	} else {
		c.lastMeas[ev.Process] = now
	}
}

// measured is the host time of all measured phases.
func (c *phaseClock) measured() float64 {
	var s float64
	for p, end := range c.lastMeas {
		s += end.Sub(c.lastWarmup[p]).Seconds()
	}
	return s
}

// untracedCall runs the workload once through its public entry point and
// returns its figures.
func untracedCall(w *workload) (sample, error) {
	if w.churn != nil {
		return untracedChurn(*w.churn)
	}
	var s sample
	clock := newPhaseClock(w.scenario)
	heap := startHeapSampler()
	start := time.Now()
	rr, err := mitosis.Run(*w.scenario, mitosis.WithObserver(clock))
	s.wall = time.Since(start).Seconds()
	s.peakHeap = heap.finish()
	if err != nil {
		return s, err
	}
	s.simSec = clock.measured()
	s.ops, s.cycles = measuredTotals(rr)
	s.digest = scenarioDigest(rr)
	return s, nil
}

// setupCall times one set-up probe: host seconds from the call's start to
// its first round barrier. A scenario's probe is the scenario cut to one
// round (see setupProbe); a churn probe is the same storm with one process
// per socket, whose set-up is the call's wall time minus the storm's.
func setupCall(w *workload) (float64, error) {
	if w.churn != nil {
		c := *w.churn
		c.Procs = c.Sockets
		emptySystemPool()
		start := time.Now()
		res, err := mitosis.RunChurn(c)
		if err != nil {
			return 0, err
		}
		return time.Since(start).Seconds() - res.WallSec, nil
	}
	probe := setupProbe(*w.scenario)
	clock := newPhaseClock(&probe)
	runtime.GC()
	start := time.Now()
	if _, err := mitosis.Run(probe, mitosis.WithObserver(clock)); err != nil {
		return 0, err
	}
	return clock.first.Sub(start).Seconds(), nil
}

// emptySystemPool drops the machines mitosis.RunChurn parks for reuse: a
// sync.Pool keeps an item through one GC cycle and drops it in the next.
// Every churn call then boots its machine, as a program's first call does.
func emptySystemPool() {
	runtime.GC()
	runtime.GC()
}

// untracedChurn runs one churn storm on a freshly booted machine.
func untracedChurn(c mitosis.Churn) (sample, error) {
	var s sample
	emptySystemPool()
	heap := startHeapSampler()
	start := time.Now()
	res, err := mitosis.RunChurn(c)
	s.wall = time.Since(start).Seconds()
	s.peakHeap = heap.finish()
	if err != nil {
		return s, err
	}
	s.simSec = res.WallSec
	s.ops, s.cycles = res.Ops, res.Cycles
	s.digest = churnDigest(res)
	return s, nil
}

// tracedCall runs the workload once through the traced run and returns
// its digest. Like an untraced call, it starts from a collected heap.
func tracedCall(w *workload, t *tracer) (string, error) {
	if w.churn != nil {
		emptySystemPool()
		res, err := tracedChurn(*w.churn, t)
		if err != nil {
			return "", err
		}
		return churnDigest(res), nil
	}
	return tracedScenario(*w.scenario, t)
}

func tracedScenario(sc mitosis.Scenario, t *tracer) (string, error) {
	runtime.GC()
	rr, err := tracedRun(sc, t)
	if err != nil {
		return "", err
	}
	return scenarioDigest(rr), nil
}
