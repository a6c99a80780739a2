package workloads

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// engineRun executes one workload on a fresh kernel under the default
// engine configuration and returns the full Result, including the raw
// per-core counters.
func engineRun(t *testing.T, mk func() Workload, sockets, coresPerSocket, ops int) *Result {
	t.Helper()
	return engineRunCfg(t, shrink(mk()), sockets, coresPerSocket, ops,
		func(*Env) EngineConfig { return EngineConfig{} })
}

// engineRunCfg is engineRun for an already sized workload, under the engine
// configuration cfg builds from the run's environment.
func engineRunCfg(t *testing.T, w Workload, sockets, coresPerSocket, ops int, cfg func(*Env) EngineConfig) *Result {
	t.Helper()
	k := kernel.New(kernel.Config{
		Topology:      numa.NewTopology(sockets, coresPerSocket),
		FramesPerNode: 65536,
	})
	p, err := k.CreateProcess(kernel.ProcessOpts{Name: w.Name(), Home: 0, DataLocality: w.DataLocality()})
	if err != nil {
		t.Fatal(err)
	}
	var cores []numa.CoreID
	for s := 0; s < sockets; s++ {
		for i := 0; i < coresPerSocket; i++ {
			cores = append(cores, k.Topology().FirstCoreOf(numa.SocketID(s))+numa.CoreID(i))
		}
	}
	if err := k.RunOn(p, cores); err != nil {
		t.Fatal(err)
	}
	env := NewEnv(k, p, false, 42)
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	res, err := RunWith(env, w, ops, cfg(env))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// recordingWorkload wraps a workload so each thread's Step records the ops
// it yields, in call order. Each thread appends only to its own stream.
type recordingWorkload struct {
	Workload
	streams [][]hw.AccessOp
}

func (r *recordingWorkload) NewThread(env *Env, thread int) Step {
	step := r.Workload.NewThread(env, thread)
	for len(r.streams) <= thread {
		r.streams = append(r.streams, nil)
	}
	return func() (pt.VirtAddr, bool) {
		va, write := step()
		r.streams[thread] = append(r.streams[thread], hw.AccessOp{VA: va, Write: write})
		return va, write
	}
}

// checkStreams asserts that every recorded thread stream is exactly the
// first ops ops of a fresh generator for that thread: the engine calls each
// Step once per op, in order.
func checkStreams(t *testing.T, label string, env *Env, r *recordingWorkload, threads, ops int) {
	t.Helper()
	if len(r.streams) != threads {
		t.Fatalf("%s: %d thread streams, want %d", label, len(r.streams), threads)
	}
	for ti, got := range r.streams {
		step := r.Workload.NewThread(env, ti)
		want := make([]hw.AccessOp, ops)
		for i := range want {
			want[i].VA, want[i].Write = step()
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: thread %d op stream diverged from its generator (%d ops recorded, want %d)",
				label, ti, len(got), ops)
		}
	}
}

// TestOpStreamsIndependentOfEngine: generating each thread's ops right
// before its batch must not change any thread's op stream — on a
// multi-socket run with shared LLCs, and across a policy tick that
// migrates the process and rebinds the engine mid-run.
func TestOpStreamsIndependentOfEngine(t *testing.T) {
	const sockets, perSocket, ops = 4, 2, 1000
	r := &recordingWorkload{Workload: shrink(NewCannealMS())}
	var env *Env
	engineRunCfg(t, r, sockets, perSocket, ops, func(e *Env) EngineConfig {
		env = e
		return EngineConfig{}
	})
	checkStreams(t, "multi-socket", env, r, sockets*perSocket, ops)

	r = &recordingWorkload{Workload: shrink(NewGUPS())}
	_, log, socket, env := migrationRun(t, r)
	if socket != 0 || len(log) == 0 {
		t.Fatalf("process not migrated (socket %d, log %v)", socket, log)
	}
	checkStreams(t, "rebind", env, r, 1, migrationOps)
}

// barrierProbe is a RoundTicker that classifies completed rounds from the
// counters: a round whose barrier invalidated LLC lines had coherence
// pending, and a round without a single page walk had none (only store
// walks buffer events).
type barrierProbe struct {
	m             *hw.Machine
	cores         []numa.CoreID
	sockets       int
	walks, invals uint64
	pending, idle int
}

func (b *barrierProbe) Tick(int) error {
	var walks, invals uint64
	for _, c := range b.cores {
		walks += b.m.Stats(c).Walks
	}
	for s := range b.sockets {
		invals += b.m.LLCStats(numa.SocketID(s)).Invalidates
	}
	if invals > b.invals {
		b.pending++
	}
	if walks == b.walks {
		b.idle++
	}
	b.walks, b.invals = walks, invals
	return nil
}

// TestParallelMatchesSequential is the engine's determinism contract: two
// fresh runs on the same inputs must produce byte-identical counters,
// across workload families — GUPS (uniform writes), a key-value store
// (zipf reads with hot objects), and a scientific code (XSBench's
// cross-section lookups).
func TestParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		mk   func() Workload
	}{
		{"GUPS", func() Workload { return NewGUPS() }},
		{"kv-Memcached", NewMemcached},
		{"scientific-XSBench", func() Workload { return NewXSBenchMS() }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := engineRun(t, c.mk, 4, 1, 4000)
			b := engineRun(t, c.mk, 4, 1, 4000)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("two runs diverged:\na: %+v\nb: %+v", a, b)
			}
			if a.Ops != 4*4000 {
				t.Errorf("Ops = %d, want %d", a.Ops, 4*4000)
			}
		})
	}
}

// TestParallelMatchesSequentialSharedLLC pins the harder half of the
// contract: multiple cores per socket share an LLC, so the engine must
// run same-socket cores in canonical order to stay deterministic. The
// STREAM case runs one op per core per round: every thread crosses a page
// (a store walk) once in 64 rounds, so barriers with pending coherence
// interleave with barriers that skip the apply step.
func TestParallelMatchesSequentialSharedLLC(t *testing.T) {
	const sockets, perSocket = 4, 2
	cases := []struct {
		name  string
		mk    func() Workload
		chunk int
		mixed bool
	}{
		{"GUPS", func() Workload { return NewGUPS() }, DefaultChunk, false},
		{"STREAM-chunk1", func() Workload { return NewSTREAM() }, 1, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var probes []*barrierProbe
			run := func() *Result {
				return engineRunCfg(t, shrink(c.mk()), sockets, perSocket, 2000, func(env *Env) EngineConfig {
					probe := &barrierProbe{m: env.K.Machine(), cores: env.P.Cores(), sockets: sockets}
					probes = append(probes, probe)
					return EngineConfig{Chunk: c.chunk, Ticker: probe}
				})
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("two runs diverged with 2 cores/socket:\na: %+v\nb: %+v", a, b)
			}
			if c.mixed {
				for _, p := range probes {
					if p.pending == 0 || p.idle == 0 {
						t.Errorf("rounds not mixed: %d with coherence applied, %d without walks", p.pending, p.idle)
					}
				}
			}
		})
	}
}

// TestParallelRepeatable: two runs of a key-value store with identical
// inputs must be identical to each other.
func TestParallelRepeatable(t *testing.T) {
	mk := func() Workload { return NewRedis() }
	a := engineRun(t, mk, 4, 1, 3000)
	b := engineRun(t, mk, 4, 1, 3000)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two runs diverged:\na: %+v\nb: %+v", a, b)
	}
}

// policyRun executes GUPS on a 4-socket machine with a replication-policy
// engine ticking at the round barriers. The table skews to socket 0 (InitSingle first-touch), so sockets 1-3 walk
// remote until the policy replicates to them.
func policyRun(t *testing.T, policyName string, ops int) (*Result, []kernel.ActionRecord, []int) {
	t.Helper()
	k := kernel.New(kernel.Config{
		Topology:      numa.NewTopology(4, 1),
		FramesPerNode: 65536,
	})
	k.Sysctl().PageCacheTarget = 64
	k.ApplySysctl()
	w := shrink(func() Workload { return NewGUPS() }())
	p, err := k.CreateProcess(kernel.ProcessOpts{Name: w.Name(), Home: 0, DataLocality: w.DataLocality()})
	if err != nil {
		t.Fatal(err)
	}
	var cores []numa.CoreID
	for s := 0; s < 4; s++ {
		cores = append(cores, k.Topology().FirstCoreOf(numa.SocketID(s)))
	}
	if err := k.RunOn(p, cores); err != nil {
		t.Fatal(err)
	}
	env := NewEnv(k, p, false, 42)
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	pol, err := k.NewPolicy(policyName)
	if err != nil {
		t.Fatal(err)
	}
	eng := k.AttachPolicy(p, pol, kernel.PolicyEngineConfig{StepPages: 8})
	res, err := RunWith(env, w, ops, EngineConfig{Ticker: eng})
	if err != nil {
		t.Fatal(err)
	}
	return res, eng.ActionLog(), eng.ReplicaTimeline()
}

// TestPolicyDeterminismAcrossEngines extends the determinism contract to
// the policy engine: two runs of a 4-socket GUPS whose OnDemand policy
// replicates mid-run give identical counters AND identical policy action
// logs.
func TestPolicyDeterminismAcrossEngines(t *testing.T) {
	const ops = 4000
	aRes, aLog, aTL := policyRun(t, "ondemand", ops)
	bRes, bLog, bTL := policyRun(t, "ondemand", ops)

	if len(aLog) == 0 {
		t.Fatal("OnDemand never acted: the determinism check is vacuous")
	}
	if !reflect.DeepEqual(aRes, bRes) {
		t.Errorf("counters diverged:\na: %+v\nb: %+v", aRes, bRes)
	}
	if !reflect.DeepEqual(aLog, bLog) {
		t.Errorf("action logs diverged:\na: %v\nb: %v", aLog, bLog)
	}
	if !reflect.DeepEqual(aTL, bTL) {
		t.Errorf("replica timelines diverged:\na: %v\nb: %v", aTL, bTL)
	}
}

// TestStaticPolicyIsCounterTransparent: attaching the Static policy engine
// (the pre-refactor compatibility baseline) must reproduce the counters of
// a run with no policy engine at all, bit for bit.
func TestStaticPolicyIsCounterTransparent(t *testing.T) {
	const ops = 4000
	bare := engineRun(t, func() Workload { return NewGUPS() }, 4, 1, ops)
	withStatic, log, _ := policyRun(t, "static", ops)
	if len(log) != 0 {
		t.Fatalf("static policy acted: %v", log)
	}
	if !reflect.DeepEqual(bare, withStatic) {
		t.Errorf("static policy perturbed counters:\nbare:   %+v\nstatic: %+v", bare, withStatic)
	}
}

// migrationOps is migrationRun's ops per thread.
const migrationOps = 3000

// migrationRun executes w (a shrunk GUPS) under a CostAdaptive policy
// engine whose tick migrates the single-threaded process from socket 2 to
// socket 0 mid-run, and returns the result, the action log, the socket the
// process ended on, and the run's environment.
func migrationRun(t *testing.T, w Workload) (*Result, []kernel.ActionRecord, numa.SocketID, *Env) {
	t.Helper()
	k := kernel.New(kernel.Config{
		Topology:      numa.NewTopology(4, 1),
		FramesPerNode: 65536,
	})
	k.Sysctl().PageCacheTarget = 64
	k.ApplySysctl()
	// Threads on socket 2; data and table land on node 0 (Bind +
	// PTFixed): the cost model should migrate the threads to socket 0
	// rather than copy the table next to remote data.
	p, err := k.CreateProcess(kernel.ProcessOpts{
		Name: w.Name(), Home: 2,
		DataPolicy: kernel.Bind, BindNode: 0,
		PTPolicy: kernel.PTFixed, PTNode: 0,
		DataLocality: w.DataLocality(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.RunOn(p, []numa.CoreID{k.Topology().FirstCoreOf(2)}); err != nil {
		t.Fatal(err)
	}
	env := NewEnv(k, p, false, 42)
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	pol, err := k.NewPolicy("costadaptive")
	if err != nil {
		t.Fatal(err)
	}
	eng := k.AttachPolicy(p, pol, kernel.PolicyEngineConfig{})
	res, err := RunWith(env, w, migrationOps, EngineConfig{Ticker: eng})
	if err != nil {
		t.Fatal(err)
	}
	return res, eng.ActionLog(), k.Topology().SocketOf(p.Cores()[0]), env
}

// TestPolicyMigrationRebindsEngine: a CostAdaptive tick that migrates the
// process mid-run must rebind the engine's threads to the new cores, and
// two such runs must agree on every counter and action.
func TestPolicyMigrationRebindsEngine(t *testing.T) {
	aRes, aLog, aSock, _ := migrationRun(t, shrink(NewGUPS()))
	bRes, bLog, bSock, _ := migrationRun(t, shrink(NewGUPS()))
	if aSock != 0 || bSock != 0 {
		t.Fatalf("process not migrated to socket 0 (%d, %d); log %v", aSock, bSock, aLog)
	}
	if len(aLog) == 0 {
		t.Fatal("cost-adaptive policy never acted")
	}
	if !reflect.DeepEqual(aRes, bRes) {
		t.Errorf("rebind broke determinism:\na: %+v\nb: %+v", aRes, bRes)
	}
	if !reflect.DeepEqual(aLog, bLog) {
		t.Errorf("action logs diverged:\na: %v\nb: %v", aLog, bLog)
	}
}

// TestPolicyEngineReuseAcrossRuns: reusing one attached engine for a
// second RunWith must not corrupt the telemetry deltas — ResetStats zeroes
// the machine counters between runs, and the engine's snapshots must
// resynchronize (RunStart) instead of underflowing. Leftover in-flight
// copies must be drained at run end (RunEnd) so the process is not pinned
// against reclaim forever.
func TestPolicyEngineReuseAcrossRuns(t *testing.T) {
	k := kernel.New(kernel.Config{
		Topology:      numa.NewTopology(4, 1),
		FramesPerNode: 65536,
	})
	k.Sysctl().PageCacheTarget = 64
	k.ApplySysctl()
	w := shrink(func() Workload { return NewGUPS() }())
	p, err := k.CreateProcess(kernel.ProcessOpts{Name: w.Name(), Home: 0, DataLocality: w.DataLocality()})
	if err != nil {
		t.Fatal(err)
	}
	var cores []numa.CoreID
	for s := 0; s < 4; s++ {
		cores = append(cores, k.Topology().FirstCoreOf(numa.SocketID(s)))
	}
	if err := k.RunOn(p, cores); err != nil {
		t.Fatal(err)
	}
	env := NewEnv(k, p, false, 42)
	if err := w.Setup(env); err != nil {
		t.Fatal(err)
	}
	pol, err := k.NewPolicy("ondemand")
	if err != nil {
		t.Fatal(err)
	}
	// StepPages 1 keeps a copy in flight across many ticks, so the first
	// short run ends with unfinished jobs.
	eng := k.AttachPolicy(p, pol, kernel.PolicyEngineConfig{StepPages: 1})
	if _, err := RunWith(env, w, 96, EngineConfig{Ticker: eng}); err != nil {
		t.Fatal(err)
	}
	if eng.InFlight() != 0 {
		t.Fatalf("%d replications still in flight after the run ended", eng.InFlight())
	}
	firstActions := len(eng.ActionLog())

	// Second run with the same engine: ResetStats has zeroed the counters
	// the engine snapshotted. Deltas must stay sane — a few replicate
	// actions at most, never a flood from underflowed telemetry.
	if _, err := RunWith(env, w, 96, EngineConfig{Ticker: eng}); err != nil {
		t.Fatal(err)
	}
	newActions := len(eng.ActionLog()) - firstActions
	if newActions > 4 {
		t.Errorf("second run applied %d actions — telemetry deltas look corrupted; log %v",
			newActions, eng.ActionLog())
	}
	for _, rec := range eng.ActionLog() {
		if rec.Action.Kind == core.ActionMigrate {
			t.Errorf("spurious migration from a multi-socket process: %v", rec)
		}
	}
}

// TestParallelStress hammers the shared state concurrent AccessBatch
// callers must be able to rely on: 4 sockets x 2 cores issue concurrent
// batches against one address space that is NOT pre-populated, so the
// cores race through the demand-paging fault path (allocator, page cache,
// mapper, meter) while walking and mutating one shared page-table. Run
// under -race this is the machine's data-race certification; the counter
// checks below only assert conservation, not determinism (fault-time
// allocation order is scheduling-dependent by design).
func TestParallelStress(t *testing.T) {
	const sockets, perSocket = 4, 2
	k := kernel.New(kernel.Config{
		Topology:      numa.NewTopology(sockets, perSocket),
		FramesPerNode: 65536,
	})
	p, err := k.CreateProcess(kernel.ProcessOpts{Name: "stress", Home: 0})
	if err != nil {
		t.Fatal(err)
	}
	var cores []numa.CoreID
	for c := numa.CoreID(0); int(c) < sockets*perSocket; c++ {
		cores = append(cores, c)
	}
	if err := k.RunOn(p, cores); err != nil {
		t.Fatal(err)
	}
	const size = 32 << 20
	base, err := k.Mmap(p, size, kernel.MmapOpts{Writable: true})
	if err != nil {
		t.Fatal(err)
	}

	m := k.Machine()
	const rounds, chunk = 50, 64
	var wg sync.WaitGroup
	errs := make([]error, len(cores))
	for ci, c := range cores {
		wg.Add(1)
		go func(ci int, c numa.CoreID) {
			defer wg.Done()
			rng := uint64(ci)*0x9E3779B97F4A7C15 + 1
			ops := make([]hw.AccessOp, chunk)
			for r := 0; r < rounds; r++ {
				for i := range ops {
					rng = rng*6364136223846793005 + 1442695040888963407
					ops[i].VA = base + pt.VirtAddr(rng%size)&^4095
					ops[i].Write = rng&1 == 0
				}
				if err := m.AccessBatch(c, ops); err != nil {
					errs[ci] = err
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	m.ClearCoherence(cores)
	for ci, err := range errs {
		if err != nil {
			t.Fatalf("core %d: %v", cores[ci], err)
		}
	}
	var totalOps, totalFaults uint64
	for _, c := range cores {
		s := m.Stats(c)
		totalOps += s.Ops
		totalFaults += s.Faults
	}
	if want := uint64(len(cores) * rounds * chunk); totalOps != want {
		t.Errorf("total ops = %d, want %d", totalOps, want)
	}
	if totalFaults == 0 {
		t.Error("stress run took no page faults — fault path not exercised")
	}
}
