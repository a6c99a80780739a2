// Package hw is the simulated hardware execution engine: per-core
// translation state (owned by a pluggable translate.Backend), per-socket
// LLC models for page-table lines, and the access/batch execution paths.
// It executes memory accesses against a page-table in simulated physical
// memory and charges NUMA-aware cycle costs, producing the per-core cycle
// and page-walk counters every experiment in the paper reads through perf.
//
// The walk behaviours the paper's results depend on (per-level reads
// served by the socket's LLC or local/remote DRAM, paging-structure
// caches, raw Accessed/Dirty stores into the walked replica, exclusive
// leaf-line ownership on store walks — §3, §5.4, Figures 9b/10b) live in
// the default x86-64 backend in package translate; the machine owns what
// is backend-independent: batching, the round-barrier coherence and
// sampling buffers, the fault retry loop, cost constants, and the
// single-writer LLC discipline.
package hw

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/mmucache"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/tlb"
	"github.com/mitosis-project/mitosis-sim/internal/translate"
)

// ErrNoContext is returned when a core accesses memory without a loaded
// address space.
var ErrNoContext = errors.New("hw: core has no address space loaded")

// ErrSegfault is returned when a fault cannot be resolved by the handler.
var ErrSegfault = errors.New("hw: unresolvable page fault")

// ErrMachineCheck is returned when an access touches a frame carrying an
// uncorrectable ECC error — the simulated MCE. Under the fault-injection
// contract (poison injected and recovered at the same round barrier) a
// correctly recovered run never raises it: the guard actively enforces
// the "no walk reads a poisoned frame after recovery" invariant. The
// check arms only while poisoned frames exist, so fault-free runs pay one
// counter load per batch and nothing per op.
var ErrMachineCheck = errors.New("hw: machine check exception (poisoned frame)")

// FaultHandler resolves page faults: the simulator's kernel entry point.
// It returns the cycles the fault handling consumed (charged to the
// faulting core, outside walk cycles).
//
// The handler must be safe for concurrent calls from different cores:
// concurrent AccessBatch callers and RunChurn's per-socket workers may
// fault simultaneously on cores of *different processes*. The kernel implements
// this with per-process fault locks (sharded mmap_sem) — faults of the
// same process serialize, faults of different processes run concurrently.
type FaultHandler interface {
	HandleFault(core numa.CoreID, va pt.VirtAddr, write bool) (numa.Cycles, error)
}

// CoreStats holds one core's hardware counters (the perf values the paper
// reads: execution cycles and TLB load/store miss walk cycles, §3.2).
// The schema is defined in package translate so backends can charge walk
// counters without importing hw.
type CoreStats = translate.CoreStats

type coreState struct {
	// tctx is the core's backend context: the loaded translation
	// registers (CR3, levels, virt roots), the socket's LLC, and the
	// per-call stats pointer. Its topology fields are fixed at
	// construction; the machine mutates the rest at context switches
	// and around backend calls.
	tctx translate.Ctx
	// xc is the core's translation state (TLB/PSC or whatever the
	// backend keeps), built by the machine's backend.
	xc translate.Core
	// dataHitRate is the probability a data access hits the cache
	// hierarchy (workload-locality model).
	dataHitRate float64
	// walkOverlap scales charged walk latency: out-of-order execution
	// overlaps independent page walks with other work (§3.2 of the paper
	// notes parts of walks may be overlapped), so workloads with high
	// memory-level parallelism hide part of the walk cost. 1.0 = fully
	// exposed (dependent pointer chases), lower = partially hidden.
	walkOverlap float64
	rng         uint64
	stats       CoreStats
	// delta accumulates one batch's counters. It lives on the core (not
	// the batch's stack) so pointing tctx.Stats at it never forces a
	// heap escape — the zero-alloc contract of the batched hot path.
	delta CoreStats
	// pending buffers the page-table lines this core's store walks took
	// exclusive ownership of since the last coherence apply. The batch
	// engine applies them to other sockets' LLCs at round barriers (a
	// deterministic point); the single-op Access path applies them
	// immediately. Events accumulate across batches until an apply step
	// clears them.
	pending []mmucache.LineID
	// samples buffers this core's AutoNUMA access samples (one per data
	// access). Like pending, the batch engine folds them into FrameMeta at
	// round barriers in canonical core order (FoldSampling), so the hot
	// path appends to a core-private slice instead of hammering two
	// atomics on a shared frame-metadata cache line per op; the single-op
	// Access path folds immediately. Fold order reproduces the sequential
	// engine's update order exactly, so AutoNUMA observes identical state
	// at every quiescent point.
	samples []sample
	// busy is 1 while an Access or AccessBatch executes on this core.
	// The kernel's fault path consults it (CoreBusy) to decide whether a
	// process's cores are quiescent enough to collapse its page-table
	// replicas under memory pressure.
	busy atomic.Int32
	// faultLat is this core's fault-latency histogram: one entry per
	// fault taken on this core, bucketed by the simulated cycles the
	// handler charged. Kept out of CoreStats deliberately — merge/Sub
	// deltas and policy telemetry don't want a 48-counter array; the
	// aggregate view is Machine.FaultLatency.
	faultLat FaultLatHist
}

// rngSeed is core i's deterministic locality-model RNG seed (golden-ratio
// stride so neighbouring cores decorrelate immediately).
func rngSeed(i int) uint64 {
	return uint64(i)*0x9E3779B97F4A7C15 + 0x243F6A8885A308D3
}

// sample is a run of buffered AutoNUMA access samples: count consecutive
// accesses to the same frame with the same locality. Run-length encoding
// keeps tight loops (the TLB-hit fast path re-touching one page) from
// growing the buffer at all.
type sample struct {
	frame mem.FrameID
	count uint32
	local bool
}

// Config assembles a Machine.
type Config struct {
	Topology *numa.Topology
	Cost     *numa.CostModel
	Mem      *mem.PhysMem
	LLC      mmucache.LLCConfig
	// Backend supplies the translation hardware model (translate.New).
	Backend translate.Backend
}

// Machine is the hardware: cores with backend-owned translation state,
// per-socket LLCs, and the execution paths.
type Machine struct {
	topo    *numa.Topology
	cost    *numa.CostModel
	pm      *mem.PhysMem
	backend translate.Backend
	cores   []coreState
	llcs    []*mmucache.LLC
	fault   FaultHandler
	// cPipeline/cLLCHit cache the immutable cost constants so the
	// per-op path loads a field instead of calling through the cost model.
	cPipeline numa.Cycles
	cLLCHit   numa.Cycles
	// dramNodes caches Topology.DRAMNodes(): nodes at or above this index
	// are slow-tier (CXL/NVM), so the per-access tier accounting is one
	// integer compare.
	dramNodes int
	// singleWriter marks the machine as running under the round-based
	// engine's single-writer discipline: every socket's cores are driven
	// by at most one goroutine at a time, and cross-socket LLC
	// invalidations happen only at quiescent barriers. Page-table line
	// lookups then skip the LLC mutex entirely (see DESIGN.md, "Host
	// performance & the single-writer LLC").
	singleWriter bool
}

// BeginSingleWriter declares that, until EndSingleWriter, each socket's
// cores are driven from at most one goroutine at a time and coherence is
// applied only at quiescent points — the round-based engine's discipline.
// Access/AccessBatch then use the lock-free LLC path. Callers that drive
// cores of one socket from multiple goroutines concurrently (hand-rolled
// worker loops) must NOT set this. Set/clear it only at quiescent points.
func (m *Machine) BeginSingleWriter() { m.setSingleWriter(true) }

// EndSingleWriter reverts to the fully locked LLC path.
func (m *Machine) EndSingleWriter() { m.setSingleWriter(false) }

func (m *Machine) setSingleWriter(on bool) {
	m.singleWriter = on
	for i := range m.cores {
		m.cores[i].tctx.Owned = on
	}
}

// New builds the machine.
func New(cfg Config) *Machine {
	if cfg.Topology == nil || cfg.Cost == nil || cfg.Mem == nil || cfg.Backend == nil {
		panic("hw: Config requires Topology, Cost, Mem and Backend")
	}
	m := &Machine{
		topo:      cfg.Topology,
		cost:      cfg.Cost,
		pm:        cfg.Mem,
		backend:   cfg.Backend,
		cores:     make([]coreState, cfg.Topology.Cores()),
		llcs:      make([]*mmucache.LLC, cfg.Topology.Sockets()),
		cPipeline: cfg.Cost.PipelineOp(),
		cLLCHit:   cfg.Cost.LLCHit(),
		dramNodes: cfg.Topology.DRAMNodes(),
	}
	for i := range m.llcs {
		m.llcs[i] = mmucache.NewLLC(cfg.LLC)
	}
	for i := range m.cores {
		c := &m.cores[i]
		socket := m.topo.SocketOf(numa.CoreID(i))
		c.tctx = translate.Ctx{
			Core:    numa.CoreID(i),
			Socket:  socket,
			Home:    m.topo.NodeOf(socket),
			CR3:     mem.NilFrame,
			LLC:     m.llcs[socket],
			Pending: &c.pending,
		}
		c.xc = cfg.Backend.NewCore(i)
		c.dataHitRate = 0
		c.walkOverlap = 1.0
		c.rng = rngSeed(i)
	}
	return m
}

// Topology returns the machine topology.
func (m *Machine) Topology() *numa.Topology { return m.topo }

// Cost returns the cost model.
func (m *Machine) Cost() *numa.CostModel { return m.cost }

// Mem returns the physical memory.
func (m *Machine) Mem() *mem.PhysMem { return m.pm }

// Backend returns the machine's translation backend.
func (m *Machine) Backend() translate.Backend { return m.backend }

// SetFaultHandler installs the kernel's fault entry point.
func (m *Machine) SetFaultHandler(h FaultHandler) { m.fault = h }

// LoadContext is the context-switch: it programs the core's page-table
// root (write_cr3) and flushes the core's translation caches. With
// Mitosis, the kernel passes the socket-local replica root (§5.3).
func (m *Machine) LoadContext(core numa.CoreID, root mem.FrameID, levels uint8) {
	c := m.core(core)
	c.tctx.CR3 = root
	c.tctx.Levels = levels
	c.tctx.Virt = false
	c.tctx.GuestRoot = 0
	c.tctx.NestedLevels = 0
	c.xc.FlushContext(&c.tctx)
	// CR3 write plus pipeline drain.
	c.stats.Cycles += 300
}

// LoadVirtContext is the virtualized context-switch (VM entry): it
// programs the core's guest root (guest CR3, as a guest-physical frame
// number) and nested root (nCR3), and flushes the translation caches.
// TLB misses on a virtualized core perform the two-dimensional walk of
// §7.4 — each guest level's table gPA is translated through the nested
// table — with the composed gVA->hPA leaf cached in the ordinary TLB.
// With gPT/ePT replication the kernel passes the socket-local roots of
// both dimensions.
func (m *Machine) LoadVirtContext(core numa.CoreID, guestRoot uint64, nestedRoot mem.FrameID, guestLevels, nestedLevels uint8) {
	c := m.core(core)
	c.tctx.CR3 = nestedRoot
	c.tctx.Levels = guestLevels
	c.tctx.Virt = true
	c.tctx.GuestRoot = guestRoot
	c.tctx.NestedLevels = nestedLevels
	c.xc.FlushContext(&c.tctx)
	// VM entry: CR3/nCR3 programming plus pipeline drain.
	c.stats.Cycles += 300
}

// ClearContext detaches the core from any address space.
func (m *Machine) ClearContext(core numa.CoreID) {
	c := m.core(core)
	c.tctx.CR3 = mem.NilFrame
	c.tctx.Levels = 0
	c.tctx.Virt = false
	c.tctx.GuestRoot = 0
	c.tctx.NestedLevels = 0
	c.xc.FlushContext(&c.tctx)
}

// ContextRoot returns the root currently loaded on core (CR3).
func (m *Machine) ContextRoot(core numa.CoreID) mem.FrameID { return m.core(core).tctx.CR3 }

// SetDataLocality sets the probability that core's data accesses hit in
// the cache hierarchy (a workload-locality parameter; page-table lines are
// modelled exactly, data lines statistically).
func (m *Machine) SetDataLocality(core numa.CoreID, hitRate float64) {
	if hitRate < 0 || hitRate > 1 {
		panic(fmt.Sprintf("hw: data hit rate %v out of [0,1]", hitRate))
	}
	m.core(core).dataHitRate = hitRate
}

// SetWalkOverlap sets the fraction of page-walk latency exposed on core's
// critical path. Workloads with independent accesses (high memory-level
// parallelism) overlap walks with other work and expose less.
func (m *Machine) SetWalkOverlap(core numa.CoreID, exposed float64) {
	if exposed <= 0 || exposed > 1 {
		panic(fmt.Sprintf("hw: walk overlap %v out of (0,1]", exposed))
	}
	m.core(core).walkOverlap = exposed
}

// Stats returns a copy of core's counters.
func (m *Machine) Stats(core numa.CoreID) CoreStats { return m.core(core).stats }

// SocketStats aggregates the counters of every core of socket s — the
// per-socket telemetry feed replication policies tick on. Call it only at a
// quiescent point (no batch in flight on s's cores).
func (m *Machine) SocketStats(s numa.SocketID) CoreStats {
	var agg CoreStats
	for _, c := range m.topo.CoresOf(s) {
		agg.Merge(&m.cores[c].stats)
	}
	return agg
}

// TLBStats returns core's TLB counters.
func (m *Machine) TLBStats(core numa.CoreID) tlb.Stats { return m.core(core).xc.TLBStats() }

// LLCStats returns socket's page-table-line cache counters.
func (m *Machine) LLCStats(s numa.SocketID) mmucache.LLCStats { return m.llcs[s].Stats }

// ResetStats zeroes all counters on all cores (not the cache contents).
func (m *Machine) ResetStats() {
	for i := range m.cores {
		m.cores[i].stats = CoreStats{}
		m.cores[i].xc.ResetStats()
		m.cores[i].faultLat = FaultLatHist{}
	}
	for _, l := range m.llcs {
		l.Stats = mmucache.LLCStats{}
	}
}

// Reset restores the machine to its just-built state: contexts unloaded,
// translation caches and LLCs as freshly constructed, locality models
// rewound, stats and buffered coherence/sampling events dropped. Callers
// must be quiescent (no run in flight). Buffer capacities are kept so a
// recycled machine re-runs without reallocating them; a reset machine is
// behaviourally indistinguishable from a new one.
func (m *Machine) Reset() {
	for i := range m.cores {
		c := &m.cores[i]
		c.tctx.CR3 = mem.NilFrame
		c.tctx.Levels = 0
		c.tctx.Virt = false
		c.tctx.GuestRoot = 0
		c.tctx.NestedLevels = 0
		c.tctx.Owned = false
		c.xc.Reset()
		c.dataHitRate = 0
		c.walkOverlap = 1.0
		c.rng = rngSeed(i)
		c.stats = CoreStats{}
		c.delta = CoreStats{}
		c.faultLat = FaultLatHist{}
		c.pending = c.pending[:0]
		c.samples = c.samples[:0]
		c.busy.Store(0)
	}
	for _, l := range m.llcs {
		l.Reset()
	}
	m.singleWriter = false
}

// AddCycles charges extra cycles to a core: the kernel uses it to bill
// system-call and fault-handling work.
func (m *Machine) AddCycles(core numa.CoreID, cy numa.Cycles) {
	m.core(core).stats.Cycles += cy
}

// MaxCycles returns the highest cycle count across the given cores — the
// makespan of a parallel phase.
func (m *Machine) MaxCycles(cores []numa.CoreID) numa.Cycles {
	var maxCy numa.Cycles
	for _, c := range cores {
		if cy := m.core(c).stats.Cycles; cy > maxCy {
			maxCy = cy
		}
	}
	return maxCy
}

// AccessOp is one memory operation of a batch: a virtual address and the
// load/store direction.
type AccessOp struct {
	VA    pt.VirtAddr
	Write bool
}

// Access executes one memory operation on core at va. It consults the
// translation caches, walks the page-table on a miss (taking page faults
// through the fault handler as needed), charges all cycle costs, and
// samples data-frame access statistics for the kernel's NUMA balancer.
// Cross-socket coherence (store walks invalidating page-table lines
// cached by other sockets) is applied immediately, so a sequence of
// Access calls behaves exactly like the original per-op engine.
//
// Access and AccessBatch on the same core are not safe for concurrent use;
// different cores may run concurrently (see DESIGN.md for which
// operations additionally require quiescence).
func (m *Machine) Access(core numa.CoreID, va pt.VirtAddr, write bool) error {
	c := m.core(core)
	if c.tctx.CR3 == mem.NilFrame {
		return ErrNoContext
	}
	socket := c.tctx.Socket
	armed := m.pm.PoisonCount() > 0
	c.busy.Store(1)
	err := m.accessOne(c, core, socket, c.tctx.Home, va, write, armed, &c.stats)
	c.busy.Store(0)
	for _, line := range c.pending {
		m.invalidateOthers(socket, line)
	}
	c.pending = c.pending[:0]
	if m.singleWriter {
		m.foldCoreSamples(c, socket)
	} else {
		// Inline accesses may run concurrently on other cores; fold with
		// atomics like the pre-engine sampling path.
		m.foldCoreSamplesAtomic(c, socket)
	}
	return err
}

// AccessBatch executes a batch of memory operations on core, amortizing the
// per-op overhead (core/context resolution, stats plumbing) across the
// batch. Cross-socket invalidations triggered by store walks are NOT
// applied inline: they accumulate in the core's coherence buffer — across
// batches, until the caller runs an apply step — DrainCoherence for the
// simple case, or the ApplyCoherenceTo/ClearCoherence pair the execution
// engine uses at round barriers. Deferring the invalidations to a
// deterministic point is what makes concurrent per-core batches produce
// bit-identical counters to a sequential run.
//
// On error, ops executed before the failing one remain charged, mirroring a
// partially executed instruction stream.
func (m *Machine) AccessBatch(core numa.CoreID, ops []AccessOp) error {
	c := m.core(core)
	if c.tctx.CR3 == mem.NilFrame {
		return ErrNoContext
	}
	socket := c.tctx.Socket
	home := c.tctx.Home
	armed := m.pm.PoisonCount() > 0
	c.busy.Store(1)
	c.delta = CoreStats{}
	var err error
	for i := range ops {
		if err = m.accessOne(c, core, socket, home, ops[i].VA, ops[i].Write, armed, &c.delta); err != nil {
			break
		}
	}
	c.stats.Merge(&c.delta)
	c.busy.Store(0)
	if !m.singleWriter {
		// Outside the engine's barrier discipline there is no later
		// quiescent fold point this path can rely on (and concurrent
		// batches on other cores may be in flight): fold this batch's
		// samples now, atomically.
		m.foldCoreSamplesAtomic(c, socket)
	}
	return err
}

// CoreBusy reports whether core is executing an Access/AccessBatch. The
// kernel's memory-pressure path uses it to avoid tearing down page-table
// replicas (and reloading CR3) under cores that may be mid-batch, such as
// a concurrent AccessBatch caller's. The execution engine needs no more:
// it runs every batch on one goroutine, so a fault inside one of its
// batches is the only execution in flight on the run's cores.
func (m *Machine) CoreBusy(core numa.CoreID) bool {
	return m.core(core).busy.Load() != 0
}

// accessOne is the shared per-op path of Access and AccessBatch. Cycle and
// counter charges go to st (the caller's accumulator); coherence ownership
// events go to c.pending, AutoNUMA samples to c.samples. home is socket's
// local memory node, resolved once per call by the caller. The backend
// handles the translation caches and the walk; the machine charges the
// pipeline, scales walk latency by the core's overlap model, and runs the
// statistical data-cache model.
func (m *Machine) accessOne(c *coreState, core numa.CoreID, socket numa.SocketID, home numa.NodeID, va pt.VirtAddr, write bool, armed bool, st *CoreStats) error {
	st.Ops++
	cycles := m.cPipeline
	c.tctx.Stats = st

	// MCE guard, armed only while poisoned frames exist: a walk starting
	// from a poisoned root traps before translating.
	if armed && m.pm.Poisoned(c.tctx.CR3) {
		st.Cycles += cycles
		return fmt.Errorf("%w: core %d root frame %d", ErrMachineCheck, core, c.tctx.CR3)
	}

	entry, probeCy, ok := c.xc.Probe(&c.tctx, va, write)
	cycles += probeCy
	var frame mem.FrameID
	node := numa.InvalidNode
	if ok {
		frame = entry.Frame(va)
		node = entry.Node
	} else {
		leaf, size, walkCy, err := m.walk(c, core, va, write, st)
		if err != nil {
			st.Cycles += cycles
			return err
		}
		walkCy = numa.Cycles(float64(walkCy) * c.walkOverlap)
		st.Walks++
		st.WalkCycles += walkCy
		cycles += walkCy
		// The mapping's node rides along in the cached translation, so
		// hits skip the frame->node computation; mappings spanning nodes
		// cache InvalidNode and recompute per access below.
		node = m.pm.NodeOfRange(leaf.Frame(), size.Bytes()>>pt.PageShift4K)
		c.xc.Fill(&c.tctx, va, leaf, size, node)
		e := tlb.Entry{VPN: uint64(va) >> uint(sizeShift(size)), Leaf: leaf, Size: size}
		frame = e.Frame(va)
	}
	if node == numa.InvalidNode {
		node = m.pm.NodeOf(frame)
	}

	if armed && m.pm.Poisoned(frame) {
		st.Cycles += cycles
		return fmt.Errorf("%w: core %d va %#x data frame %d", ErrMachineCheck, core, uint64(va), frame)
	}

	// Data access cost: statistically cached, else DRAM at the frame's
	// node (with interference).
	local := node == home
	if m.nextRand(c) < c.dataHitRate {
		cycles += m.cLLCHit
	} else {
		cycles += m.cost.DRAM(socket, node)
		st.DataMemAccesses++
		if !local {
			st.DataRemoteAccesses++
			if int(node) >= m.dramNodes {
				st.DataTierAccesses++
			}
		}
	}

	// Buffer the access sample for the kernel's NUMA balancer (AutoNUMA);
	// folded into FrameMeta at the next quiescent point. Consecutive
	// samples of the same frame collapse into one run.
	if n := len(c.samples); n > 0 && c.samples[n-1].frame == frame && c.samples[n-1].local == local {
		c.samples[n-1].count++
	} else {
		c.samples = append(c.samples, sample{frame: frame, count: 1, local: local})
	}

	st.Cycles += cycles
	return nil
}

// walk drives the backend's single-walk attempts for va on core,
// including fault handling and retry. Returns the leaf PTE, its page
// size, and the walk's cycle cost (fault handling is charged separately,
// to st).
func (m *Machine) walk(c *coreState, core numa.CoreID, va pt.VirtAddr, write bool, st *CoreStats) (pt.PTE, pt.PageSize, numa.Cycles, error) {
	const maxFaults = 4
	faults := 0

	for {
		leaf, size, cy, ok := c.xc.WalkOnce(&c.tctx, va, write)
		if ok {
			return leaf, size, cy, nil
		}
		// Page fault: charge the partial walk, then trap to the kernel.
		st.WalkCycles += cy
		st.Cycles += cy
		faults++
		if m.fault == nil || faults > maxFaults {
			return 0, 0, 0, fmt.Errorf("%w: core %d va %#x", ErrSegfault, core, uint64(va))
		}
		st.Faults++
		faultCy, err := m.fault.HandleFault(core, va, write)
		st.FaultCycles += faultCy
		st.Cycles += faultCy
		c.faultLat.add(faultCy)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("%w: core %d va %#x: %v", ErrSegfault, core, uint64(va), err)
		}
	}
}

// invalidateOthers drops the line from every socket's LLC except the owner.
func (m *Machine) invalidateOthers(owner numa.SocketID, line mmucache.LineID) {
	for s := range m.llcs {
		if numa.SocketID(s) != owner {
			m.llcs[s].Invalidate(line)
		}
	}
}

// DrainCoherence applies the coherence events buffered by AccessBatch on
// the given cores, in core order, then clears the buffers, and folds the
// cores' buffered AutoNUMA samples into frame metadata in the same order.
// Call it at a quiescent point (no batch in flight on any core). The order
// is part of the determinism contract: a fixed core list yields a fixed
// sequence of LLC invalidations and metadata updates.
func (m *Machine) DrainCoherence(cores []numa.CoreID) {
	for _, core := range cores {
		c := m.core(core)
		owner := m.topo.SocketOf(core)
		for _, line := range c.pending {
			m.invalidateOthers(owner, line)
		}
		c.pending = c.pending[:0]
	}
	m.FoldSampling(cores)
}

// FoldSampling folds the AutoNUMA access samples buffered by the given
// cores into frame metadata, in core order, and clears the buffers. Call
// it only at quiescent points (round barriers): the fold mutates shared
// FrameMeta without atomics. Folding per-core buffers in canonical core
// order fixes the update order, which keeps AutoNUMA decisions — and
// therefore all counters — bit-identical across runs.
func (m *Machine) FoldSampling(cores []numa.CoreID) {
	for _, core := range cores {
		c := m.core(core)
		m.foldCoreSamples(c, m.topo.SocketOf(core))
	}
}

func (m *Machine) foldCoreSamples(c *coreState, socket numa.SocketID) {
	if len(c.samples) == 0 {
		return
	}
	for _, s := range c.samples {
		m.pm.SampleAccess(s.frame, socket, s.local, s.count)
	}
	c.samples = c.samples[:0]
}

func (m *Machine) foldCoreSamplesAtomic(c *coreState, socket numa.SocketID) {
	if len(c.samples) == 0 {
		return
	}
	for _, s := range c.samples {
		m.pm.SampleAccessAtomic(s.frame, socket, s.local, s.count)
	}
	c.samples = c.samples[:0]
}

// ApplyCoherenceTo applies buffered coherence events from the given cores
// (in the given order) to target's LLC only, skipping cores that live on
// target — a socket's own store walks do not invalidate its own cache.
// The round engine runs this for every target socket at a round barrier,
// so each LLC sees events in the canonical core order. Buffers are left in
// place (other targets still need them); clear them afterwards with
// ClearCoherence at the same barrier.
func (m *Machine) ApplyCoherenceTo(target numa.SocketID, cores []numa.CoreID) {
	llc := m.llcs[target]
	owned := m.singleWriter
	for _, core := range cores {
		if m.topo.SocketOf(core) == target {
			continue
		}
		for _, line := range m.core(core).pending {
			if owned {
				llc.InvalidateOwned(line)
			} else {
				llc.Invalidate(line)
			}
		}
	}
}

// CoherencePending reports whether any of the given cores has buffered
// coherence events that no apply step has cleared yet. With none pending,
// ApplyCoherenceTo and ClearCoherence are no-ops, so a round barrier may
// skip its apply step.
func (m *Machine) CoherencePending(cores []numa.CoreID) bool {
	for _, core := range cores {
		if len(m.core(core).pending) > 0 {
			return true
		}
	}
	return false
}

// ClearCoherence drops the buffered coherence events of the given cores
// without applying them. Use only after every target socket has run
// ApplyCoherenceTo (or to discard events deliberately).
func (m *Machine) ClearCoherence(cores []numa.CoreID) {
	for _, core := range cores {
		c := m.core(core)
		c.pending = c.pending[:0]
	}
}

// ShootdownPage performs a TLB shootdown for va: the initiating core pays
// the IPI round-trip cost and every target core (plus the initiator) drops
// its translation for va. The kernel calls this after unmapping or
// remapping a page.
func (m *Machine) ShootdownPage(initiator numa.CoreID, va pt.VirtAddr, targets []numa.CoreID) {
	const ipiCost = 2000 // cycles for IPI send + acks
	init := m.core(initiator)
	init.xc.ShootdownPage(&init.tctx, va)
	others := 0
	for _, t := range targets {
		if t == initiator {
			continue
		}
		tc := m.core(t)
		tc.xc.ShootdownPage(&tc.tctx, va)
		others++
	}
	if others > 0 {
		init.stats.Cycles += ipiCost
	}
}

// ShootdownRange performs one batched TLB shootdown for a set of pages:
// a single IPI round-trip regardless of page count (Linux's
// flush_tlb_range), with each core's backend applying its own
// full-flush threshold (x86's tlb_single_page_flush_ceiling behaviour).
func (m *Machine) ShootdownRange(initiator numa.CoreID, vas []pt.VirtAddr, targets []numa.CoreID) {
	if len(vas) == 0 {
		return
	}
	const ipiCost = 2000
	init := m.core(initiator)
	init.xc.ShootdownRange(&init.tctx, vas)
	others := 0
	for _, t := range targets {
		if t == initiator {
			continue
		}
		tc := m.core(t)
		tc.xc.ShootdownRange(&tc.tctx, vas)
		others++
	}
	if others > 0 {
		init.stats.Cycles += ipiCost
	}
}

// FlushAll flushes core's translation caches (global shootdown on that
// core).
func (m *Machine) FlushAll(core numa.CoreID) {
	c := m.core(core)
	c.xc.FlushContext(&c.tctx)
}

// FlushLLCs empties all per-socket page-table line caches (used between
// experiment phases).
func (m *Machine) FlushLLCs() {
	for _, l := range m.llcs {
		l.Flush()
	}
}

func (m *Machine) core(c numa.CoreID) *coreState {
	if c < 0 || int(c) >= len(m.cores) {
		panic(fmt.Sprintf("hw: core %d out of range [0,%d)", c, len(m.cores)))
	}
	return &m.cores[c]
}

// nextRand advances the core's deterministic LCG and returns a float in
// [0,1).
func (m *Machine) nextRand(c *coreState) float64 {
	c.rng = c.rng*6364136223846793005 + 1442695040888963407
	return float64(c.rng>>11) / float64(1<<53)
}

func sizeShift(s pt.PageSize) int {
	switch s {
	case pt.Size4K:
		return 12
	case pt.Size2M:
		return 21
	default:
		return 30
	}
}
