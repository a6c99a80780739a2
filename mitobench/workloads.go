package main

import (
	"fmt"
	"runtime"

	mitosis "github.com/mitosis-project/mitosis-sim"
	"github.com/mitosis-project/mitosis-sim/internal/workloads"
)

// workloadNames lists the benchmark's workloads in report order. Each one
// loads a different layer of the simulator; BENCHMARK.json records why.
var workloadNames = []string{"tlb-hit", "walk-gups", "churn-storm", "tiered-failover"}

// sizes scales a workload. full is the benchmark of record; tiny keeps the
// self-test fast while exercising every code path.
type sizes struct {
	// warmup and measure are ops per thread for the scenario workloads.
	tlbWarmup, tlbMeasure   int
	gupsScale               float64
	gupsWarmup, gupsMeasure int
	tierScale               float64
	tierWarmup, tierMeasure int
	churnProcs              int
}

var (
	fullSize = sizes{
		tlbWarmup: 100_000, tlbMeasure: 2_000_000,
		gupsScale: 1, gupsWarmup: 20_000, gupsMeasure: 200_000,
		tierScale: 1.0 / 8, tierWarmup: 5_000, tierMeasure: 100_000,
		churnProcs: 3072,
	}
	tinySize = sizes{
		tlbWarmup: 2_000, tlbMeasure: 4_000,
		gupsScale: 1.0 / 64, gupsWarmup: 1_000, gupsMeasure: 2_000,
		tierScale: 1.0 / 64, tierWarmup: 1_000, tierMeasure: 4_000,
		churnProcs: 16,
	}
)

// workload is one runnable benchmark input. Exactly one of scenario and
// churn is set.
type workload struct {
	scenario *mitosis.Scenario
	churn    *mitosis.Churn
	// backends lists the translation backends, besides the default x86-64
	// one, that the traced run repeats the workload on.
	backends []string
}

// otherBackends are the translation backends besides the default one.
var otherBackends = []string{mitosis.HardwareX8664LA57, mitosis.HardwareVictima}

// withBackend returns sc on the named translation backend.
func withBackend(sc mitosis.Scenario, backend string) mitosis.Scenario {
	mitosis.WithHardware(mitosis.HardwareSpec{Backend: backend})(&sc)
	return sc
}

// rounds is the engine round count of a phase of ops operations per thread.
func rounds(ops int) int {
	return (ops + workloads.DefaultChunk - 1) / workloads.DefaultChunk
}

// sparseTicks sets every process's tick period to the largest round count
// that divides each of its phases. Without a policy engine the period only
// paces the run observer, so the untraced run still sees the last barrier
// of every phase — all it needs to time the measured phases — without
// paying the observer on every round. Counters do not depend on it.
func sparseTicks(sc *mitosis.Scenario) {
	for i := range sc.Processes {
		p := &sc.Processes[i]
		every := 0
		for _, ph := range p.Phases {
			every = gcd(every, rounds(ph.Ops))
		}
		p.Policy.TickEvery = every
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// newWorkload builds the named workload's inputs from the seed.
func newWorkload(name string, seed int64, sz sizes) (*workload, error) {
	w := &workload{}
	switch name {
	case "tlb-hit":
		sc := mitosis.NewScenario(name,
			mitosis.OnMachine(mitosis.SystemConfig{Sockets: 4, CoresPerSocket: 1, MemoryPerNode: 512 << 20, THP: true}),
			mitosis.WithSeed(seed),
			mitosis.WithProc(mitosis.NewProc("stream", mitosis.Stream(),
				mitosis.OnSockets(0, 1, 2, 3),
				mitosis.WithReplication(mitosis.ReplicationSpec{All: true}),
				mitosis.WithPhases(mitosis.Warmup(sz.tlbWarmup), mitosis.Measure(sz.tlbMeasure)))),
		)
		sparseTicks(&sc)
		w.scenario = &sc
		w.backends = otherBackends
	case "walk-gups":
		gups := mitosis.GUPS(mitosis.InSuite("wm"), mitosis.Scaled(sz.gupsScale))
		phases := mitosis.WithPhases(mitosis.Warmup(sz.gupsWarmup), mitosis.Measure(sz.gupsMeasure))
		sc := mitosis.NewScenario(name,
			mitosis.OnMachine(mitosis.SystemConfig{Sockets: 4, CoresPerSocket: 2, MemoryPerNode: 1 << 30}),
			mitosis.WithSeed(seed),
			mitosis.WithProc(mitosis.NewProc("stranded", gups, mitosis.OnSockets(0, 1, 2, 3),
				mitosis.WithPTNode(3), phases)),
			mitosis.WithProc(mitosis.NewProc("replicated", gups, mitosis.OnSockets(0, 1, 2, 3),
				mitosis.WithReplication(mitosis.ReplicationSpec{All: true}), phases)),
		)
		sparseTicks(&sc)
		w.scenario = &sc
		w.backends = otherBackends
	case "churn-storm":
		c := mitosis.Churn{
			Name:          name,
			Machine:       mitosis.SystemConfig{Sockets: 4, CoresPerSocket: 2, MemoryPerNode: 64 << 20, THP: true},
			Procs:         sz.churnProcs,
			Sockets:       4,
			PagesPerProc:  256,
			Chunk:         32,
			HugePages:     2048,
			Fragmentation: 0.3,
			Pressure:      0.5,
			Seed:          seed,
			Workers:       min(runtime.NumCPU(), 4),
		}
		w.churn = &c
	case "tiered-failover":
		// Both processes run their phases back to back, so the fault
		// plan's run-global round clock puts the page-table poison inside
		// the GUPS measured phase (after the policy replicated) and the
		// data poison inside the KV measured phase.
		wr, mr := rounds(sz.tierWarmup), rounds(sz.tierMeasure)
		plan := fmt.Sprintf("poison-pt:r%d:p0:n1;poison-data:r%d:p1:g5", wr+mr/4, 2*wr+mr+mr/4)
		tiering := mitosis.WithTiering(mitosis.TieringSpec{Policy: "hotcold-ptpin", TickEvery: 64, StepPages: 4096})
		phases := mitosis.WithPhases(mitosis.Warmup(sz.tierWarmup), mitosis.Measure(sz.tierMeasure))
		sc := mitosis.NewScenario(name,
			mitosis.OnMachine(mitosis.SystemConfig{Sockets: 2, CoresPerSocket: 2, MemoryPerNode: 512 << 20}),
			mitosis.WithTiers(mitosis.TierSpec{Kind: "cxl", Socket: 0}),
			mitosis.WithSeed(seed),
			mitosis.WithFaults(plan),
			mitosis.WithProc(mitosis.NewProc("gups", mitosis.GUPS(mitosis.InSuite("wm"), mitosis.Scaled(sz.tierScale)),
				mitosis.OnSockets(0, 1), mitosis.WithPTNode(2),
				mitosis.WithPolicySpec(mitosis.PolicySpec{Name: "ondemand", TickEvery: 64, StepPages: 256}),
				tiering, phases)),
			mitosis.WithProc(mitosis.NewProc("kv", mitosis.KeyValue("Memcached", mitosis.Scaled(sz.tierScale)),
				mitosis.OnSockets(0, 1), mitosis.WithDataBind(2), tiering, phases)),
		)
		w.scenario = &sc
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if w.scenario != nil {
		if err := w.scenario.Validate(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
	} else if err := w.churn.Validate(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	return w, nil
}

// setupProbe is the scenario with every process's phases cut to one
// warm-up round and ticks every round: the same boot, fragmentation, spawn,
// populate and replication work, reaching its first round barrier at once.
func setupProbe(sc mitosis.Scenario) mitosis.Scenario {
	procs := make([]mitosis.ProcSpec, len(sc.Processes))
	for i, p := range sc.Processes {
		p.Phases = []mitosis.PhaseSpec{mitosis.Warmup(workloads.DefaultChunk)}
		p.Policy.TickEvery = 0
		procs[i] = p
	}
	sc.Processes = procs
	return sc
}
