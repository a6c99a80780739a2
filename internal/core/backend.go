package core

import (
	"sync/atomic"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
)

// Propagation selects how a PTE store reaches the other replicas.
type Propagation int

const (
	// PropagateRing follows the circular replica list threaded through
	// frame metadata: 2N memory references for N replicas (the paper's
	// optimized design, Figure 8).
	PropagateRing Propagation = iota
	// PropagateWalk models the naive alternative the paper rejects:
	// locating each replica's entry by walking that replica's page-table
	// from its root, costing 4N references. Functionally identical; only
	// the charged cost differs. Kept for the ablation benchmark.
	PropagateWalk
)

// Backend is the Mitosis PV-Ops backend (§5.2). With an empty replica set
// it behaves exactly like the native backend; with replication enabled it
// eagerly propagates every page-table store to all replica pages, keeping
// upper-level entries socket-local in each replica.
type Backend struct {
	pm    *mem.PhysMem
	cost  *numa.CostModel
	cache *mem.PageCache
	prop  Propagation
	depth uint8 // paging depth, for PropagateWalk cost accounting

	// Stats accumulates backend-level counters for reporting.
	Stats BackendStats
}

// BackendStats counts replica maintenance work. The counters are bumped
// with atomic adds, so they stay safe for page-table operations made
// outside the kernel's fault lock.
// Read them only at quiescence (all simulated counters are reported from
// quiescent points).
type BackendStats struct {
	// ReplicaStores counts PTE stores into non-primary replicas.
	ReplicaStores uint64
	// ReplicaPTPages counts page-table pages allocated for replicas.
	ReplicaPTPages uint64
	// TranslatedPointers counts upper-level entries rewritten to point at
	// a replica-local child instead of the primary child.
	TranslatedPointers uint64
}

// NewBackend creates a Mitosis backend. The page cache provides the strict
// per-socket allocations replicas need (§5.1); pass a zero-target cache if
// reservation is not wanted.
func NewBackend(pm *mem.PhysMem, cost *numa.CostModel, cache *mem.PageCache) *Backend {
	if pm == nil || cost == nil || cache == nil {
		panic("core: NewBackend requires memory, cost model and page cache")
	}
	return &Backend{pm: pm, cost: cost, cache: cache, prop: PropagateRing, depth: 4}
}

// SetPropagation selects the replica update strategy (ring vs walk).
func (b *Backend) SetPropagation(p Propagation) { b.prop = p }

// Reset restores the backend to its just-built state: counters zeroed,
// propagation strategy and paging-depth accounting back to defaults. The
// reuse path for recycling a kernel between independent runs.
func (b *Backend) Reset() {
	b.prop = PropagateRing
	b.depth = 4
	b.Stats = BackendStats{}
}

// Name implements pvops.Backend.
func (b *Backend) Name() string { return "mitosis" }

// AllocPT implements pvops.Backend. It allocates the master page on the
// primary node and, if the spec carries replica nodes, one replica page per
// node, linking all of them into a circular replica ring.
func (b *Backend) AllocPT(ctx *pvops.OpCtx, spec pvops.AllocSpec) (mem.FrameID, error) {
	if spec.Level > b.depth {
		b.depth = spec.Level
	}
	p := b.cost.Params()
	// The master page prefers the primary node but may fall back (as
	// Linux page-table allocation does under pressure); only replica
	// pages are strict, per §5.1.
	master, err := b.allocMaster(spec.Primary, spec.Level)
	if err != nil {
		return mem.NilFrame, err
	}
	count(ctx, func(m *pvops.Meter) { m.PTAllocs++ })
	charge(ctx, p.PTAllocInit+p.PageZero)

	for _, node := range spec.Replicas {
		if node == spec.Primary {
			continue
		}
		rep, err := b.cache.AllocPT(node, spec.Level)
		if err != nil {
			// Strict allocation failed; undo and report. The caller
			// (kernel policy) decides whether to retry without
			// replication.
			b.ReleasePT(ctx, master)
			return mem.NilFrame, err
		}
		ringInsert(b.pm, master, rep)
		atomic.AddUint64(&b.Stats.ReplicaPTPages, 1)
		count(ctx, func(m *pvops.Meter) { m.PTAllocs++ })
		charge(ctx, p.PTAllocInit+p.PageZero)
	}
	return master, nil
}

// allocMaster allocates the non-replica page: preferred node first, then
// any node with memory.
func (b *Backend) allocMaster(preferred numa.NodeID, level uint8) (mem.FrameID, error) {
	f, err := b.cache.AllocPT(preferred, level)
	if err == nil {
		return f, nil
	}
	for n := 0; n < b.pm.Topology().Nodes(); n++ {
		if numa.NodeID(n) == preferred {
			continue
		}
		if f, err := b.cache.AllocPT(numa.NodeID(n), level); err == nil {
			return f, nil
		}
	}
	return mem.NilFrame, err
}

// ReleasePT implements pvops.Backend: it frees the page and every replica
// in its ring.
func (b *Backend) ReleasePT(ctx *pvops.OpCtx, f mem.FrameID) {
	p := b.cost.Params()
	members := ringMembers(b.pm, f)
	for _, m := range members {
		ringUnlink(b.pm, m)
		b.cache.FreePT(m)
		count(ctx, func(mt *pvops.Meter) { mt.PTFrees++ })
		charge(ctx, p.PTAllocInit)
	}
}

// SetPTE implements pvops.Backend. The store lands in ref's page and is
// propagated to every replica page in the ring. Entries that point to
// page-table pages are translated so that each replica points to its own
// socket-local copy of the child table (the semantic, non-bytewise
// replication the paper contrasts with data replication in §2.3).
func (b *Backend) SetPTE(ctx *pvops.OpCtx, ref pt.EntryRef, e pt.PTE) {
	p := b.cost.Params()
	pt.WriteEntryRaw(b.pm, ref, b.translate(ref.Frame, e))
	count(ctx, func(m *pvops.Meter) { m.PTEWrites++ })
	charge(ctx, p.PTEStore)

	for cur := b.pm.Meta(ref.Frame).ReplicaNext; cur != mem.NilFrame && cur != ref.Frame; cur = b.pm.Meta(cur).ReplicaNext {
		pt.WriteEntryRaw(b.pm, pt.EntryRef{Frame: cur, Index: ref.Index}, b.translate(cur, e))
		atomic.AddUint64(&b.Stats.ReplicaStores, 1)
		switch b.prop {
		case PropagateRing:
			// One metadata pointer chase plus one store per replica: the
			// 2N scheme.
			count(ctx, func(m *pvops.Meter) { m.PTEWrites++; m.RingHops++ })
			charge(ctx, p.RingHop+p.PTEStore)
		case PropagateWalk:
			// The rejected 4N scheme: locate the replica's entry by
			// walking its table from the root (depth loads), then store.
			count(ctx, func(m *pvops.Meter) {
				m.PTEWrites++
				m.PTEReads += uint64(b.depth)
			})
			charge(ctx, numa.Cycles(b.depth)*p.PTELoad+p.PTEStore)
		}
	}
}

// translate rewrites entry e for the replica page dst: if e points to a
// page-table page that has a replica on dst's node, the pointer is redirected
// there. Leaf entries (data frames, huge pages) and non-present entries pass
// through unchanged.
func (b *Backend) translate(dst mem.FrameID, e pt.PTE) pt.PTE {
	if !e.Present() || e.Huge() {
		return e
	}
	target := e.Frame()
	if b.pm.Meta(target).Kind != mem.KindPageTable {
		return e
	}
	node := b.pm.NodeOf(dst)
	local, ok := ringMemberOn(b.pm, target, node)
	if !ok || local == target {
		return e
	}
	atomic.AddUint64(&b.Stats.TranslatedPointers, 1)
	return pt.NewPTE(local, e.Flags())
}

// ReadPTE implements pvops.Backend: a structural read of a single location.
func (b *Backend) ReadPTE(ctx *pvops.OpCtx, ref pt.EntryRef) pt.PTE {
	count(ctx, func(m *pvops.Meter) { m.PTEReads++ })
	charge(ctx, b.cost.Params().PTELoad)
	return pt.ReadEntry(b.pm, ref)
}

// GatherAD implements pvops.Backend: reads the entry with Accessed/Dirty
// OR-ed across all replicas (§5.4). The page walker sets those bits only in
// the replica it walked, so a single-location read would under-report.
func (b *Backend) GatherAD(ctx *pvops.OpCtx, ref pt.EntryRef) pt.PTE {
	p := b.cost.Params()
	e := pt.ReadEntry(b.pm, ref)
	count(ctx, func(m *pvops.Meter) { m.PTEReads++ })
	charge(ctx, p.PTELoad)
	for cur := b.pm.Meta(ref.Frame).ReplicaNext; cur != mem.NilFrame && cur != ref.Frame; cur = b.pm.Meta(cur).ReplicaNext {
		re := pt.ReadEntry(b.pm, pt.EntryRef{Frame: cur, Index: ref.Index})
		e |= re & (pt.FlagAccessed | pt.FlagDirty)
		count(ctx, func(m *pvops.Meter) { m.PTEReads++; m.RingHops++ })
		charge(ctx, p.RingHop+p.PTELoad)
	}
	return e
}

// ClearAD implements pvops.Backend: clears Accessed/Dirty in all replicas.
func (b *Backend) ClearAD(ctx *pvops.OpCtx, ref pt.EntryRef) {
	p := b.cost.Params()
	for _, m := range ringMembers(b.pm, ref.Frame) {
		r := pt.EntryRef{Frame: m, Index: ref.Index}
		e := pt.ReadEntry(b.pm, r)
		pt.WriteEntryRaw(b.pm, r, e.ClearFlags(pt.FlagAccessed|pt.FlagDirty))
		count(ctx, func(mt *pvops.Meter) { mt.PTEReads++; mt.PTEWrites++ })
		charge(ctx, p.PTELoad+p.PTEStore)
	}
}

func charge(ctx *pvops.OpCtx, cy numa.Cycles) {
	if ctx.Meter != nil {
		ctx.Meter.Cycles += cy
	}
}

func count(ctx *pvops.OpCtx, fn func(*pvops.Meter)) {
	if ctx.Meter != nil {
		fn(ctx.Meter)
	}
}

var _ pvops.Backend = (*Backend)(nil)
