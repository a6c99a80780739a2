package workloads

import (
	"fmt"
	"slices"

	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// Result aggregates one run's hardware counters.
type Result struct {
	// Cycles is the makespan: the maximum per-core cycle count.
	Cycles numa.Cycles
	// WalkCycles is the summed page-walk cycles across cores.
	WalkCycles numa.Cycles
	// TotalCycles is the summed cycles across cores.
	TotalCycles numa.Cycles
	// Walks is the total number of page walks.
	Walks uint64
	// Ops is the total operations executed.
	Ops uint64
	// RemoteWalkAccesses / WalkMemAccesses / WalkLLCHits aggregate the
	// walker's memory behaviour.
	RemoteWalkAccesses uint64
	WalkMemAccesses    uint64
	WalkLLCHits        uint64
	// RemoteWalkCycles is the raw DRAM latency of remote page-table reads
	// (pre overlap scaling) — the walk-locality signal policies tick on.
	RemoteWalkCycles numa.Cycles
	// TierWalkAccesses / TierWalkCycles / TierDataAccesses aggregate the
	// accesses served by slow-tier (CXL/NVM) nodes; zero on flat machines.
	TierWalkAccesses uint64
	TierWalkCycles   numa.Cycles
	TierDataAccesses uint64
	// GuestWalkCycles / NestedWalkCycles split two-dimensional walk reads
	// by dimension for virtualized runs (raw, pre overlap scaling); zero
	// for native runs.
	GuestWalkCycles  numa.Cycles
	NestedWalkCycles numa.Cycles
	// PerCore retains the raw counters.
	PerCore []hw.CoreStats
}

// WalkCycleFraction returns aggregate walk cycles over aggregate cycles —
// the hashed fraction of the paper's runtime bars.
func (r *Result) WalkCycleFraction() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64(r.WalkCycles) / float64(r.TotalCycles)
}

// RemoteWalkCycleFraction returns remote page-table DRAM cycles over
// aggregate cycles — the locality metric replication policies optimize.
func (r *Result) RemoteWalkCycleFraction() float64 {
	if r.TotalCycles == 0 {
		return 0
	}
	return float64(r.RemoteWalkCycles) / float64(r.TotalCycles)
}

// DefaultChunk is the engine's default round length: ops per core between
// coherence barriers. It matches the original per-op engine's round-robin
// interleave granularity, so cross-socket page-table line invalidations
// land with at most one round of latency.
const DefaultChunk = 32

// Rounds returns the number of engine rounds a run of opsPerThread ops
// per core takes at the given chunk (DefaultChunk when chunk <= 0): the
// ceiling of opsPerThread/chunk, computed without overflow for any chunk.
// The facade advances its cumulative policy and fault clocks by it.
func Rounds(opsPerThread, chunk int) int {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	if opsPerThread <= 0 {
		return 0
	}
	return (opsPerThread-1)/chunk + 1
}

// RoundTicker runs kernel-side policy work at the engine's round barriers
// — the deterministic quiescent points where no access batch is in flight,
// so replication state, CR3s and the scheduler may be touched freely.
// kernel.PolicyEngine implements it.
//
// A ticker may additionally implement RunStart() (called once after the
// counter reset, before the first round — snapshot resynchronization) and
// RunEnd() (called when the run finishes, successfully or not — cleanup of
// in-flight background work). Both hooks run at quiescent points.
type RoundTicker interface {
	// Tick is called after round (1-based) has fully completed: batches
	// executed, coherence applied and cleared. An error aborts the run.
	Tick(round int) error
}

// runStarter and runEnder are the optional RoundTicker lifecycle hooks.
type runStarter interface{ RunStart() }
type runEnder interface{ RunEnd() }

// EngineConfig tunes the batched execution engine.
type EngineConfig struct {
	// Chunk is the number of operations each core executes per round
	// (default DefaultChunk). Results are only comparable between runs
	// with equal chunks: the chunk is the modeled cross-socket
	// invalidation latency.
	Chunk int
	// Ticker, if set, fires at round barriers (every TickEvery rounds) —
	// the clock of the replication-policy engine. If a tick migrates the
	// process, the engine rebinds its threads to the new cores for the
	// next round.
	Ticker RoundTicker
	// TickEvery is the tick period in rounds (default 1: every barrier).
	TickEvery int
}

// Run executes opsPerThread operations of w on every core the process is
// scheduled on, interleaving threads deterministically, and returns the
// aggregated counters for just this run (the machine's counters are reset
// first, so Setup/initialization cost is excluded, as in §8.1). It uses
// the default EngineConfig; RunWith takes an explicit one.
func Run(env *Env, w Workload, opsPerThread int) (*Result, error) {
	return run(env, w, opsPerThread, true, EngineConfig{})
}

// RunWith is Run under an explicit engine configuration. Equal inputs
// produce bit-identical Results: the engine's determinism contract (see
// DESIGN.md).
func RunWith(env *Env, w Workload, opsPerThread int, cfg EngineConfig) (*Result, error) {
	return run(env, w, opsPerThread, true, cfg)
}

// RunKeepStatsWith is RunWith without the counter reset: the result
// includes all cycles accumulated since the last reset, so initialization
// is measured too (the paper's Table 6 end-to-end configuration).
func RunKeepStatsWith(env *Env, w Workload, opsPerThread int, cfg EngineConfig) (*Result, error) {
	return run(env, w, opsPerThread, false, cfg)
}

// run drives the batched execution engine.
//
// Execution proceeds in rounds on the calling goroutine. Each round, every
// core executes one chunk of operations via Machine.AccessBatch — per-core
// state (TLB, PSC, RNG, counters) is fully sharded, and the cores run in
// canonical order (grouped by socket), so each socket's shared LLC sees a
// deterministic access sequence. Store walks buffer their cross-socket
// line invalidations; at the round barrier the buffered events are applied
// (again in canonical core order) to every socket's LLC; a barrier with no
// buffered event skips that apply step. The buffering is the modeled
// coherence latency: a chunk is how long a remote page-table line stays
// stale.
//
// Each thread's ops are generated right before its batch. Every Step
// closure owns its RNG and cursor, so the op streams depend only on the
// seed.
func run(env *Env, w Workload, opsPerThread int, reset bool, cfg EngineConfig) (*Result, error) {
	cores := slices.Clone(env.P.Cores())
	if len(cores) == 0 {
		return nil, fmt.Errorf("workloads: process not scheduled")
	}
	steps := make([]Step, len(cores))
	for i := range cores {
		steps[i] = w.NewThread(env, i)
	}
	m := env.K.Machine()
	for _, c := range cores {
		m.SetDataLocality(c, w.DataLocality())
		m.SetWalkOverlap(c, w.WalkOverlap())
	}
	if reset {
		m.ResetStats()
	}

	chunk := cfg.Chunk
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	tickEvery := cfg.TickEvery
	if tickEvery <= 0 {
		tickEvery = 1
	}
	if rs, ok := cfg.Ticker.(runStarter); ok {
		rs.RunStart()
	}
	if re, ok := cfg.Ticker.(runEnder); ok {
		defer re.RunEnd()
	}
	// No round runs more than opsPerThread ops, so a chunk longer than
	// the run needs no longer buffer.
	bufLen := min(chunk, max(opsPerThread, 0))
	bufs := make([][]hw.AccessOp, len(cores))
	for i := range bufs {
		bufs[i] = make([]hw.AccessOp, bufLen)
	}
	errs := make([]error, len(cores))

	topo := env.K.Topology()
	eng := &engine{
		m: m, cores: cores, groups: groupBySocket(topo, cores),
		sockets: topo.Sockets(), steps: steps, bufs: bufs, errs: errs,
	}
	// The engine's round discipline (one goroutine drives every core,
	// coherence applied only at barriers) satisfies the machine's
	// single-writer contract, so the run takes the lock-free LLC path.
	m.BeginSingleWriter()
	defer m.EndSingleWriter()

	// participated accumulates every core the run executed on, in order of
	// first appearance — policy ticks may migrate the process mid-run, and
	// the result must cover the counters left on the old cores too.
	participated := slices.Clone(eng.cores)
	remaining := opsPerThread
	rounds := Rounds(opsPerThread, chunk)
	for round := 1; round <= rounds; round++ {
		n := min(chunk, remaining)
		eng.round(n)
		// Errors surface in canonical order.
		for ti, c := range eng.cores {
			if errs[ti] != nil {
				return nil, fmt.Errorf("workloads: %s op on core %d: %w", w.Name(), c, errs[ti])
			}
		}
		remaining -= n
		if cfg.Ticker != nil && round%tickEvery == 0 {
			// The barrier has fully closed: no batch in flight, coherence
			// applied and cleared, so kernel-side policy work is safe.
			if err := cfg.Ticker.Tick(round); err != nil {
				// The partial counters ride along with the error: a fault
				// tick that kills the running process still attributes the
				// work it did before dying.
				return Collect(env, participated), fmt.Errorf("workloads: policy tick at round %d: %w", round, err)
			}
			if newCores := env.P.Cores(); !slices.Equal(newCores, eng.cores) {
				if err := eng.rebind(env, w, newCores); err != nil {
					return nil, err
				}
				for _, c := range eng.cores {
					if !slices.Contains(participated, c) {
						participated = append(participated, c)
					}
				}
			}
		}
	}
	return Collect(env, participated), nil
}

// groupBySocket groups core indices by socket, in order of first
// appearance; within a group the cores keep their list order. The nested
// group/core order is the canonical order of the run.
func groupBySocket(topo *numa.Topology, cores []numa.CoreID) [][]int {
	var groups [][]int
	groupOf := make([]int, topo.Sockets())
	for i := range groupOf {
		groupOf[i] = -1
	}
	for i, c := range cores {
		s := topo.SocketOf(c)
		g := groupOf[s]
		if g < 0 {
			g = len(groups)
			groupOf[s] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// engine holds one run's scheduling state.
type engine struct {
	m       *hw.Machine
	cores   []numa.CoreID
	groups  [][]int // core indices per socket group, canonical order
	sockets int
	steps   []Step // per thread
	bufs    [][]hw.AccessOp
	errs    []error
}

// round executes one chunk on every core, in canonical order, plus the
// barrier: the coherence apply step when some core buffered an event, then
// the AutoNUMA sample fold.
func (e *engine) round(n int) {
	for _, group := range e.groups {
		for _, ti := range group {
			buf := e.bufs[ti][:n]
			step := e.steps[ti]
			for i := range buf {
				buf[i].VA, buf[i].Write = step()
			}
			e.errs[ti] = e.m.AccessBatch(e.cores[ti], buf)
		}
	}
	// Applying zero events moves no counter, so a round without store
	// walks skips the apply step. Each apply touches only its target
	// socket's LLC, so socket order does not matter; sockets that run no
	// core of this run apply too, since their LLCs may cache lines of the
	// shared table.
	if e.m.CoherencePending(e.cores) {
		for s := range e.sockets {
			e.m.ApplyCoherenceTo(numa.SocketID(s), e.cores)
		}
		// Every socket has applied this round's events: drop them so the
		// next round's batches start from empty buffers.
		e.m.ClearCoherence(e.cores)
	}
	// The fold runs in canonical core order.
	e.m.FoldSampling(e.cores)
}

// rebind re-targets the engine at the process's new core set after a
// policy tick migrated it. Thread identity is positional: thread i moves
// from old core i to new core i, keeping its Step generator.
func (e *engine) rebind(env *Env, w Workload, newCores []numa.CoreID) error {
	if len(newCores) == 0 {
		return fmt.Errorf("workloads: process descheduled mid-run by policy tick")
	}
	if len(newCores) != len(e.cores) {
		return fmt.Errorf("workloads: policy tick changed thread count %d -> %d mid-run",
			len(e.cores), len(newCores))
	}
	e.cores = slices.Clone(newCores)
	for _, c := range e.cores {
		e.m.SetDataLocality(c, w.DataLocality())
		e.m.SetWalkOverlap(c, w.WalkOverlap())
	}
	e.groups = groupBySocket(env.K.Topology(), e.cores)
	return nil
}

// Collect gathers the machine counters for the given cores into a Result.
func Collect(env *Env, cores []numa.CoreID) *Result {
	m := env.K.Machine()
	res := &Result{}
	for _, c := range cores {
		s := m.Stats(c)
		res.PerCore = append(res.PerCore, s)
		if s.Cycles > res.Cycles {
			res.Cycles = s.Cycles
		}
		res.TotalCycles += s.Cycles
		res.WalkCycles += s.WalkCycles
		res.Walks += s.Walks
		res.Ops += s.Ops
		res.RemoteWalkAccesses += s.WalkRemoteAccesses
		res.WalkMemAccesses += s.WalkMemAccesses
		res.WalkLLCHits += s.WalkLLCHits
		res.RemoteWalkCycles += s.WalkRemoteCycles
		res.GuestWalkCycles += s.GuestWalkCycles
		res.NestedWalkCycles += s.NestedWalkCycles
		res.TierWalkAccesses += s.WalkTierAccesses
		res.TierWalkCycles += s.WalkTierCycles
		res.TierDataAccesses += s.DataTierAccesses
	}
	return res
}

// MultiSocketSuite returns the six workloads of the paper's multi-socket
// scenario (§3.1, §8.1) in Figure 4/9 order.
func MultiSocketSuite() []Workload {
	return []Workload{
		NewCannealMS(),
		NewMemcached(),
		NewXSBenchMS(),
		NewGraph500MS(),
		NewHashJoinMS(),
		NewBTreeMS(),
	}
}

// MigrationSuite returns the eight workloads of the workload-migration
// scenario (§3.2, §8.2) in Figure 6/10 order.
func MigrationSuite() []Workload {
	return []Workload{
		NewGUPS(),
		NewBTree(),
		NewHashJoin(),
		NewRedis(),
		NewXSBench(),
		NewPageRank(),
		NewLibLinear(),
		NewCanneal(),
	}
}

// Scale multiplies w's footprint by f, preserving every other parameter.
// Experiments use it for quick-mode runs; note that scaling changes which
// cache/TLB regime the workload lands in, so shapes are only meaningful at
// the calibrated default footprints.
func Scale(w Workload, f float64) Workload {
	switch v := w.(type) {
	case *GUPS:
		v.FootprintBytes = scaleBytes(v.FootprintBytes, f)
	case *STREAM:
		v.FootprintBytes = scaleBytes(v.FootprintBytes, f)
	case *BTree:
		v.FootprintBytes = scaleBytes(v.FootprintBytes, f)
	case *HashJoin:
		v.FootprintBytes = scaleBytes(v.FootprintBytes, f)
	case *XSBench:
		v.FootprintBytes = scaleBytes(v.FootprintBytes, f)
	case *Canneal:
		v.FootprintBytes = scaleBytes(v.FootprintBytes, f)
	case *PageRank:
		v.FootprintBytes = scaleBytes(v.FootprintBytes, f)
	case *LibLinear:
		v.FootprintBytes = scaleBytes(v.FootprintBytes, f)
	case *Graph500:
		v.FootprintBytes = scaleBytes(v.FootprintBytes, f)
	case *kvStore:
		v.footprintBytes = scaleBytes(v.footprintBytes, f)
	default:
		panic(fmt.Sprintf("workloads: cannot scale %T", w))
	}
	return w
}

// scaleBytes keeps footprints 2MB-aligned and at least 8MB.
func scaleBytes(b uint64, f float64) uint64 {
	s := uint64(float64(b) * f)
	if s < 8<<20 {
		s = 8 << 20
	}
	return s / (2 << 20) * (2 << 20)
}

// ByName resolves a workload by its paper name within a scenario suite
// ("ms" or "wm"); nil if unknown.
func ByName(name, scenario string) Workload {
	var suite []Workload
	switch scenario {
	case "ms":
		suite = MultiSocketSuite()
	case "wm":
		suite = MigrationSuite()
	default:
		suite = append(MultiSocketSuite(), MigrationSuite()...)
	}
	for _, w := range suite {
		if w.Name() == name {
			return w
		}
	}
	if name == "STREAM" {
		return NewSTREAM()
	}
	return nil
}
