package mitosis_test

// The benchmark harness regenerates every table and figure of the paper's
// analysis and evaluation sections (run with -benchtime=1x for one full
// regeneration per figure; each benchmark prints the paper-format rows on
// its first iteration). BenchmarkMicro* measure the simulator's own hot
// paths.

import (
	"fmt"
	"sync"
	"testing"

	mitosis "github.com/mitosis-project/mitosis-sim"
	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/experiments"
	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/metrics"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
	"github.com/mitosis-project/mitosis-sim/internal/translate"
	"github.com/mitosis-project/mitosis-sim/internal/workloads"
)

// benchCfg keeps the full calibrated footprints but a bench-friendly
// operation count.
var benchCfg = experiments.Config{Ops: 20000}

var printOnce sync.Map

// printFirst prints s the first time key is seen, so -benchtime=Nx does
// not repeat the tables.
func printFirst(key, s string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Println(s)
	}
}

func BenchmarkFig1Headline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.RunFig1(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig1", out)
	}
}

func BenchmarkFig3PageTableDump(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiments.RunFig3(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig3", out)
	}
}

func BenchmarkFig4RemoteLeafPTEs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunFig4(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig4", t.String())
	}
}

func BenchmarkFig6MigrationAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig6(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig6", f.String())
	}
}

func BenchmarkFig9aMultiSocket4K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig9(benchCfg, false)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig9a", f.String())
		reportBestImprovement(b, f.Group)
	}
}

func BenchmarkFig9bMultiSocket2M(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig9(benchCfg, true)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig9b", f.String())
		reportBestImprovement(b, f.Group)
	}
}

func BenchmarkFig10aMigration4K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig10(benchCfg, false)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig10a", f.String())
		reportBestImprovement(b, f.Group)
	}
}

func BenchmarkFig10bMigration2M(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig10(benchCfg, true)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig10b", f.String())
		reportBestImprovement(b, f.Group)
	}
}

func BenchmarkFig11Fragmentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFig11(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig11", f.String())
		reportBestImprovement(b, f.Group)
	}
}

func BenchmarkTable4MemoryOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.RunTable4()
		printFirst("table4", t.String())
	}
}

func BenchmarkTable5VMAOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTable5(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("table5", t.String())
	}
}

func BenchmarkTable6EndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunTable6(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("table6", t.String())
	}
}

func BenchmarkAblationPropagation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunAblationPropagation(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("abl-prop", t.String())
	}
}

func BenchmarkAblationFiveLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunAblationFiveLevel(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("abl-5lvl", t.String())
	}
}

func BenchmarkAblationPageCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunAblationPageCache(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("abl-pc", t.String())
	}
}

func BenchmarkAblationAsyncReplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunAblationAsyncReplication(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("abl-async", t.String())
	}
}

func BenchmarkAblationVirtualization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunAblationVirtualization(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("abl-virt", t.String())
	}
}

func BenchmarkAblationAutoPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.RunAblationAutoPolicy(benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("abl-auto", t.String())
	}
}

// reportBestImprovement publishes the largest Mitosis improvement of a
// figure as a custom metric (max-mitosis-speedup-x).
func reportBestImprovement(b *testing.B, groups []metrics.Group) {
	best := 0.0
	for _, g := range groups {
		for _, bar := range g.Bars {
			if bar.Improvement > best {
				best = bar.Improvement
			}
		}
	}
	b.ReportMetric(best, "max-mitosis-speedup-x")
}

// --- simulator micro-benchmarks ---

// BenchmarkMicroAccessTLBHit measures the simulator's fast path: one
// memory operation whose translation hits the first-level TLB.
func BenchmarkMicroAccessTLBHit(b *testing.B) {
	b.ReportAllocs()
	k := kernel.New(kernel.Config{FramesPerNode: 1 << 16})
	p, err := k.CreateProcess(kernel.ProcessOpts{Name: "micro", Home: 0})
	if err != nil {
		b.Fatal(err)
	}
	if err := k.RunOn(p, []numa.CoreID{0}); err != nil {
		b.Fatal(err)
	}
	base, err := k.Mmap(p, 1<<20, kernel.MmapOpts{Writable: true, Populate: true})
	if err != nil {
		b.Fatal(err)
	}
	m := k.Machine()
	if err := m.Access(0, base, false); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Access(0, base, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroAccessBatchTLBHit measures the batched fast path: the same
// L1-TLB-hit op stream issued through AccessBatch, which amortizes the
// per-op context and stats overhead.
func BenchmarkMicroAccessBatchTLBHit(b *testing.B) {
	b.ReportAllocs()
	k := kernel.New(kernel.Config{FramesPerNode: 1 << 16})
	p, err := k.CreateProcess(kernel.ProcessOpts{Name: "micro", Home: 0})
	if err != nil {
		b.Fatal(err)
	}
	if err := k.RunOn(p, []numa.CoreID{0}); err != nil {
		b.Fatal(err)
	}
	base, err := k.Mmap(p, 1<<20, kernel.MmapOpts{Writable: true, Populate: true})
	if err != nil {
		b.Fatal(err)
	}
	m := k.Machine()
	const chunk = 512
	ops := make([]hw.AccessOp, chunk)
	for i := range ops {
		ops[i] = hw.AccessOp{VA: base}
	}
	b.ResetTimer()
	for done := 0; done < b.N; done += chunk {
		if err := m.AccessBatch(0, ops); err != nil {
			b.Fatal(err)
		}
	}
	m.DrainCoherence([]numa.CoreID{0})
}

// BenchmarkMicroAccessTLBMiss measures a full simulated page walk per
// operation (random batched accesses over a large region).
func BenchmarkMicroAccessTLBMiss(b *testing.B) {
	b.ReportAllocs()
	k := kernel.New(kernel.Config{FramesPerNode: 1 << 18})
	p, err := k.CreateProcess(kernel.ProcessOpts{Name: "micro", Home: 0})
	if err != nil {
		b.Fatal(err)
	}
	if err := k.RunOn(p, []numa.CoreID{0}); err != nil {
		b.Fatal(err)
	}
	const size = 512 << 20
	base, err := k.Mmap(p, size, kernel.MmapOpts{Writable: true, Populate: true})
	if err != nil {
		b.Fatal(err)
	}
	m := k.Machine()
	rng := uint64(12345)
	const chunk = 512
	ops := make([]hw.AccessOp, chunk)
	b.ResetTimer()
	for done := 0; done < b.N; done += chunk {
		for i := range ops {
			rng = rng*6364136223846793005 + 1442695040888963407
			ops[i] = hw.AccessOp{VA: base + pt.VirtAddr(rng%size)&^63}
		}
		if err := m.AccessBatch(0, ops); err != nil {
			b.Fatal(err)
		}
	}
	m.DrainCoherence([]numa.CoreID{0})
}

// BenchmarkMicroEngineParallelGUPS measures the full engine on a 4-socket
// GUPS run (the acceptance workload of the engine refactor).
func BenchmarkMicroEngineParallelGUPS(b *testing.B) {
	b.Run("seq", func(b *testing.B) {
		b.ReportAllocs()
		k := kernel.New(kernel.Config{})
		p, err := k.CreateProcess(kernel.ProcessOpts{Name: "gups", Home: 0})
		if err != nil {
			b.Fatal(err)
		}
		topo := k.Topology()
		cores := make([]numa.CoreID, topo.Sockets())
		for s := range cores {
			cores[s] = topo.FirstCoreOf(numa.SocketID(s))
		}
		if err := k.RunOn(p, cores); err != nil {
			b.Fatal(err)
		}
		w := workloads.NewGUPS()
		env := workloads.NewEnv(k, p, false, 42)
		if err := w.Setup(env); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := workloads.Run(env, w, 20000)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Ops), "sim-ops")
		}
	})
}

// BenchmarkMicroSetPTEReplicated measures one PTE store propagated to four
// replicas through the ring.
func BenchmarkMicroSetPTEReplicated(b *testing.B) {
	b.ReportAllocs()
	topo := numa.FourSocketXeon()
	pm := mem.New(mem.Config{Topology: topo, FramesPerNode: 1 << 16})
	cost := numa.NewCostModel(topo, numa.DefaultCostParams())
	cache := mem.NewPageCache(pm, 0)
	be := core.NewBackend(pm, cost, cache)
	ctx := &pvops.OpCtx{Socket: 0}
	f, err := be.AllocPT(ctx, pvops.AllocSpec{Level: 1, Primary: 0, Replicas: []numa.NodeID{1, 2, 3}})
	if err != nil {
		b.Fatal(err)
	}
	data, _ := pm.AllocData(0)
	e := pt.NewPTE(data, pt.FlagPresent|pt.FlagWrite)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		be.SetPTE(ctx, pt.EntryRef{Frame: f, Index: i & 511}, e)
	}
}

// BenchmarkMicroReplicateTable measures full-table replication (the
// SetMask walk) for a 64MB address space.
func BenchmarkMicroReplicateTable(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k := kernel.New(kernel.Config{FramesPerNode: 1 << 17})
		k.Sysctl().Mode = core.ModePerProcess
		p, err := k.CreateProcess(kernel.ProcessOpts{Name: "rep", Home: 0})
		if err != nil {
			b.Fatal(err)
		}
		if err := k.RunOn(p, []numa.CoreID{0}); err != nil {
			b.Fatal(err)
		}
		if _, err := k.Mmap(p, 64<<20, kernel.MmapOpts{Writable: true, Populate: true}); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := p.SetReplicationMask([]numa.NodeID{0, 1, 2, 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHotPathZeroAlloc pins the allocation-free contract of the TLB-hit
// AccessBatch fast path: after one warmup batch has sized the per-core
// sample/coherence buffers, steady-state batches must not allocate at all
// — an allocation per op is exactly the kind of structural regression the
// perf bench target exists to catch, and AllocsPerRun catches it without
// wall-clock noise.
func TestHotPathZeroAlloc(t *testing.T) {
	testHotPathZeroAlloc(t, translate.Spec{})
}

// TestHotPathZeroAllocBackends extends the allocation-free contract to
// the non-default translation backends: steady-state batches must not
// allocate whether the walk is 5-level (la57) or hits victima's
// LLC-backed translation blocks instead of an L2 TLB.
func TestHotPathZeroAllocBackends(t *testing.T) {
	for _, name := range []string{translate.BackendX8664LA57, translate.BackendVictima} {
		t.Run(name, func(t *testing.T) {
			testHotPathZeroAlloc(t, translate.Spec{Backend: name})
		})
	}
}

func testHotPathZeroAlloc(t *testing.T, hardware translate.Spec) {
	k := kernel.New(kernel.Config{FramesPerNode: 1 << 16, Hardware: hardware})
	p, err := k.CreateProcess(kernel.ProcessOpts{Name: "zeroalloc", Home: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunOn(p, []numa.CoreID{0}); err != nil {
		t.Fatal(err)
	}
	base, err := k.Mmap(p, 1<<20, kernel.MmapOpts{Writable: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	// A second process on another socket: the fault path is sharded per
	// process, and steady-state batches interleaved across two processes'
	// cores must stay allocation-free too — the per-core current[] lookup
	// and the per-process lock plumbing may not allocate.
	p2, err := k.CreateProcess(kernel.ProcessOpts{Name: "zeroalloc2", Home: 1})
	if err != nil {
		t.Fatal(err)
	}
	core2 := k.Topology().FirstCoreOf(1)
	if err := k.RunOn(p2, []numa.CoreID{core2}); err != nil {
		t.Fatal(err)
	}
	base2, err := k.Mmap(p2, 1<<20, kernel.MmapOpts{Writable: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	m := k.Machine()
	m.BeginSingleWriter()
	defer m.EndSingleWriter()
	ops := make([]hw.AccessOp, 512)
	ops2 := make([]hw.AccessOp, 512)
	for i := range ops {
		ops[i] = hw.AccessOp{VA: base + pt.VirtAddr(i%256)<<12}
		ops2[i] = hw.AccessOp{VA: base2 + pt.VirtAddr(i%256)<<12}
	}
	// Warmup: grow the sample/coherence buffers and fill both TLBs.
	if err := m.AccessBatch(0, ops); err != nil {
		t.Fatal(err)
	}
	if err := m.AccessBatch(core2, ops2); err != nil {
		t.Fatal(err)
	}
	m.DrainCoherence([]numa.CoreID{0, core2})
	allocs := testing.AllocsPerRun(100, func() {
		if err := m.AccessBatch(0, ops); err != nil {
			t.Fatal(err)
		}
		if err := m.AccessBatch(core2, ops2); err != nil {
			t.Fatal(err)
		}
		m.DrainCoherence([]numa.CoreID{0, core2})
	})
	if allocs != 0 {
		t.Errorf("TLB-hit AccessBatch path allocates %.1f times per batch, want 0", allocs)
	}
}

// BenchmarkMicroWorkloadStep measures workload generator overhead.
func BenchmarkMicroWorkloadStep(b *testing.B) {
	b.ReportAllocs()
	k := kernel.New(kernel.Config{FramesPerNode: 1 << 16})
	p, err := k.CreateProcess(kernel.ProcessOpts{Name: "gen", Home: 0})
	if err != nil {
		b.Fatal(err)
	}
	if err := k.RunOn(p, []numa.CoreID{0}); err != nil {
		b.Fatal(err)
	}
	w := workloads.Scale(workloads.NewGUPS(), 1.0/16)
	env := workloads.NewEnv(k, p, false, 1)
	if err := w.Setup(env); err != nil {
		b.Fatal(err)
	}
	step := w.NewThread(env, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// sweepCellScenario is the cell both machine-recycling benchmarks run:
// small machine, modest ops, so the boot-vs-reset difference dominates.
func sweepCellScenario() mitosis.Scenario {
	return mitosis.NewScenario("cell",
		mitosis.OnMachine(mitosis.SystemConfig{Sockets: 2, CoresPerSocket: 2, MemoryPerNode: 64 << 20}),
		mitosis.WithSeed(9),
		mitosis.WithProc(mitosis.NewProc("w", mitosis.GUPS(mitosis.Scaled(1.0/64)),
			mitosis.OnSockets(0),
			mitosis.WithPhases(mitosis.Measure(400)))))
}

// BenchmarkMicroSweepCellFresh boots a fresh system for every cell — the
// serial baseline the sweep runner's pooling is measured against.
func BenchmarkMicroSweepCellFresh(b *testing.B) {
	b.ReportAllocs()
	sc := sweepCellScenario()
	for i := 0; i < b.N; i++ {
		if _, err := mitosis.Run(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroSweepCellPooled recycles one system via Reset between
// cells, the sweep worker's steady state. Compare allocs/op against
// BenchmarkMicroSweepCellFresh: pooling must allocate measurably less per
// cell (it skips frame metadata, bitmaps and cache arrays).
func BenchmarkMicroSweepCellPooled(b *testing.B) {
	b.ReportAllocs()
	sc := sweepCellScenario()
	sys := mitosis.AcquireSystem(sc.Machine)
	defer sys.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Run(sc); err != nil {
			b.Fatal(err)
		}
		sys.Reset()
	}
}
