package translate

import (
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/mmucache"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/tlb"
)

// fullFlushThreshold is the page count above which a range shootdown
// flushes the whole TLB instead of individual pages (x86's
// tlb_single_page_flush_ceiling behaviour).
const fullFlushThreshold = 33

// walker is the machinery shared by the x86-style backends: physical
// memory, the cost model, and the cached cost constants the per-read
// path loads instead of calling through the model.
type walker struct {
	topo    *numa.Topology
	cost    *numa.CostModel
	pm      *mem.PhysMem
	cLLCHit numa.Cycles
	cL2TLB  numa.Cycles
	// dramNodes caches Topology.DRAMNodes(): nodes at or above this
	// index are slow-tier (CXL/NVM), so tier accounting is one compare.
	dramNodes int
}

func newWalker(deps Deps) walker {
	return walker{
		topo:      deps.Topo,
		cost:      deps.Cost,
		pm:        deps.Mem,
		cLLCHit:   deps.Cost.LLCHit(),
		cL2TLB:    deps.Cost.L2TLBHit(),
		dramNodes: deps.Topo.DRAMNodes(),
	}
}

// walkerCore is the per-core walk state shared by the x86-style
// backends: the paging-structure caches and the walk routines
// themselves. The walks are the exact code the machine inlined before
// the backend extraction; the committed BENCH records pin them.
type walkerCore struct {
	w   *walker
	psc *mmucache.PSC
}

// WalkOnce dispatches a single traversal attempt: the 2D guest/nested
// walk for virtualized contexts, the native walk otherwise.
func (c *walkerCore) WalkOnce(ctx *Ctx, va pt.VirtAddr, write bool) (pt.PTE, pt.PageSize, numa.Cycles, bool) {
	if ctx.Virt {
		return c.walk2dOnce(ctx, va, write)
	}
	return c.walkOnce(ctx, va, write)
}

// walkOnce is a single native traversal attempt. ok=false means a
// non-present entry was hit (page fault).
func (c *walkerCore) walkOnce(ctx *Ctx, va pt.VirtAddr, write bool) (pt.PTE, pt.PageSize, numa.Cycles, bool) {
	level := ctx.Levels
	frame := ctx.CR3
	if resume, child, hit := c.psc.Lookup(va, ctx.Levels); hit {
		level = resume
		frame = child
	}
	var cy numa.Cycles
	for ; level >= 1; level-- {
		idx := pt.Index(va, level)
		cy += c.ptRead(ctx, frame, idx)
		ref := pt.EntryRef{Frame: frame, Index: idx}
		e := pt.ReadEntry(c.w.pm, ref)
		if !e.Present() {
			return 0, 0, cy, false
		}
		isLeaf := level == 1 || e.Huge()
		if isLeaf {
			if write && !e.Writable() {
				// Present but read-only: permission fault before any
				// Dirty-bit update.
				return 0, 0, cy, false
			}
			// Hardware sets Accessed (and Dirty on store) in THIS
			// replica only, with a raw locked OR that bypasses the OS
			// write interface (§5.4). Concurrent walkers on other
			// cores must not lose each other's bits.
			flags := pt.FlagAccessed
			if write {
				flags |= pt.FlagDirty
			}
			if e.Flags()&flags != flags {
				pt.OrEntryFlagsRaw(c.w.pm, ref, flags)
			}
			if write {
				// A store-path walk acquires the leaf line exclusively
				// (Dirty-bit semantics), invalidating copies cached by
				// other sockets. Read walks leave the line shared. The
				// ownership event is buffered; the machine applies it
				// at the next deterministic coherence point.
				*ctx.Pending = append(*ctx.Pending, mmucache.LineOf(frame, idx))
			}
			size, sizeOK := pt.SizeAtLevel(level)
			if !sizeOK {
				panic(fmt.Sprintf("translate: malformed table: PS bit at level %d (va %#x)", level, uint64(va)))
			}
			return e.WithFlags(flags), size, cy, true
		}
		if !e.Accessed() {
			pt.OrEntryFlagsRaw(c.w.pm, ref, pt.FlagAccessed)
		}
		c.psc.InsertFresh(va, level, e.Frame())
		frame = e.Frame()
	}
	panic("translate: walk descended past level 1")
}

// walk2dOnce is a single two-dimensional traversal attempt for a
// virtualized context: for each guest level, the guest-table page's
// guest-physical address is translated through the nested table, then the
// guest entry itself is read; the guest leaf's gPA is nested-translated
// once more. Every table read is charged like a native walk step (LLC or
// local/remote DRAM) and additionally split into the guest/nested
// dimension counters. ok=false means a non-present or permission-failing
// *guest* entry was hit (a guest page fault, resolved by the kernel's
// guest fault path); nested faults and malformed trees panic — the
// hypervisor keeps the nested table complete for every allocated guest
// frame, so they are simulator bugs, not runtime conditions.
//
// The composed leaf returned for TLB insertion covers the smaller of the
// guest and nested page sizes (what hardware nested TLBs cache), with its
// frame adjusted to that granularity's base — worst case 24 accesses on
// 4-level paging (4 guest levels x 5 + 4), shrinking when either
// dimension maps huge pages (§7.4).
func (c *walkerCore) walk2dOnce(ctx *Ctx, va pt.VirtAddr, write bool) (pt.PTE, pt.PageSize, numa.Cycles, bool) {
	st := ctx.Stats
	gframe := ctx.GuestRoot
	var cy numa.Cycles
	for level := ctx.Levels; level >= 1; level-- {
		// Translate the guest-table page's gPA through the nested table.
		hostFrame, _, ncy := c.nptWalk(ctx, pt.VirtAddr(gframe<<pt.PageShift4K))
		cy += ncy
		// Read the guest entry from its backing host frame.
		idx := pt.Index(va, level)
		rcy := c.ptRead(ctx, hostFrame, idx)
		cy += rcy
		st.GuestWalkCycles += rcy
		ref := pt.EntryRef{Frame: hostFrame, Index: idx}
		e := pt.ReadEntry(c.w.pm, ref)
		if !e.Present() {
			return 0, 0, cy, false
		}
		isLeaf := level == 1 || e.Huge()
		if !isLeaf {
			if !e.Accessed() {
				pt.OrEntryFlagsRaw(c.w.pm, ref, pt.FlagAccessed)
			}
			gframe = uint64(e.Frame())
			continue
		}
		gsize, ok := pt.SizeAtLevel(level)
		if !ok {
			panic(fmt.Sprintf("translate: malformed guest table: PS bit at level %d (va %#x)", level, uint64(va)))
		}
		if write && !e.Writable() {
			// Present but read-only: guest permission fault before any
			// Dirty-bit update.
			return 0, 0, cy, false
		}
		// Accessed/Dirty land in THIS guest replica only, with the same
		// raw locked OR as the native walker (§5.4 at the guest level).
		flags := pt.FlagAccessed
		if write {
			flags |= pt.FlagDirty
		}
		if e.Flags()&flags != flags {
			pt.OrEntryFlagsRaw(c.w.pm, ref, flags)
		}
		if write {
			// Store walks own the guest leaf line exclusively, like the
			// native Dirty-bit protocol.
			*ctx.Pending = append(*ctx.Pending, mmucache.LineOf(hostFrame, idx))
		}
		// Final: nested-translate the gPA of va's 4KB page inside the
		// guest leaf.
		gpa := pt.VirtAddr(uint64(e.Frame())<<pt.PageShift4K + (pt.PageOffset(va, gsize) &^ (pt.Size4K.Bytes() - 1)))
		hframe, nsize, ncy2 := c.nptWalk(ctx, gpa)
		cy += ncy2
		// The composed translation is valid at the smaller granularity of
		// the two dimensions; rebase the frame to that page's start.
		eff := pt.MinSize(gsize, nsize)
		base := hframe - mem.FrameID(pt.PageOffset(va, eff)>>pt.PageShift4K)
		leaf := pt.NewPTE(base, e.Flags().ClearFlags(pt.FlagHuge)|flags)
		if eff != pt.Size4K {
			leaf |= pt.FlagHuge
		}
		return leaf, eff, cy, true
	}
	panic("translate: guest walk descended past level 1")
}

// nptWalk translates one guest-physical address through the core's nested
// table (socket-local root with ePT replication), charging each read like
// a native walk step plus the nested-dimension split counter. Nested huge
// leaves compose the in-page offset; non-present entries and misplaced PS
// bits are hypervisor invariant violations and panic.
func (c *walkerCore) nptWalk(ctx *Ctx, gpa pt.VirtAddr) (mem.FrameID, pt.PageSize, numa.Cycles) {
	st := ctx.Stats
	frame := ctx.CR3
	var cy numa.Cycles
	for level := ctx.NestedLevels; level >= 1; level-- {
		idx := pt.Index(gpa, level)
		rcy := c.ptRead(ctx, frame, idx)
		cy += rcy
		st.NestedWalkCycles += rcy
		e := pt.ReadEntry(c.w.pm, pt.EntryRef{Frame: frame, Index: idx})
		if !e.Present() {
			panic(fmt.Sprintf("translate: nested fault at gPA %#x level %d (hypervisor invariant broken)", uint64(gpa), level))
		}
		if level == 1 {
			return e.Frame(), pt.Size4K, cy
		}
		if e.Huge() {
			size, ok := pt.SizeAtLevel(level)
			if !ok {
				panic(fmt.Sprintf("translate: malformed nested table: PS bit at level %d (gPA %#x)", level, uint64(gpa)))
			}
			off := pt.PageOffset(gpa, size) >> pt.PageShift4K
			return e.Frame() + mem.FrameID(off), size, cy
		}
		frame = e.Frame()
	}
	panic("translate: nested walk descended past level 1")
}

// ptRead charges one page-table entry read: LLC hit or DRAM at the table
// page's node. Under the engine's single-writer discipline the LLC lookup
// is lock-free; the legacy locked path remains for arbitrary concurrent
// callers.
func (c *walkerCore) ptRead(ctx *Ctx, frame mem.FrameID, idx int) numa.Cycles {
	st := ctx.Stats
	line := mmucache.LineOf(frame, idx)
	var llcHit bool
	if ctx.Owned {
		llcHit = ctx.LLC.AccessOwned(line)
	} else {
		llcHit = ctx.LLC.Access(line)
	}
	if llcHit {
		st.WalkLLCHits++
		return c.w.cLLCHit
	}
	node := c.w.pm.NodeOf(frame)
	st.WalkMemAccesses++
	cy := c.w.cost.DRAM(ctx.Socket, node)
	if node != ctx.Home {
		st.WalkRemoteAccesses++
		st.WalkRemoteCycles += cy
		if int(node) >= c.w.dramNodes {
			st.WalkTierAccesses++
			st.WalkTierCycles += cy
		}
	}
	return cy
}

// x8664 is the default backend: today's walk path, extracted verbatim.
// With levels=5/vaBits=57 the same machinery is the x8664la57 backend —
// the extra walk level and PSC row come from the generic level-count
// plumbing (pt.Index handles levels 1–5, the PSC carries a PML5E row).
type x8664 struct {
	walker
	name   string
	levels uint8
	vaBits int
	tlbCfg tlb.Config
	pscCfg mmucache.PSCConfig
}

func newX8664(name string, levels uint8, vaBits int, tlbCfg tlb.Config, pscCfg mmucache.PSCConfig, deps Deps) *x8664 {
	return &x8664{
		walker: newWalker(deps),
		name:   name,
		levels: levels,
		vaBits: vaBits,
		tlbCfg: tlbCfg,
		pscCfg: pscCfg,
	}
}

func (b *x8664) Name() string  { return b.name }
func (b *x8664) Levels() uint8 { return b.levels }
func (b *x8664) Geometry() Geometry {
	return Geometry{
		Backend: b.name,
		Levels:  int(b.levels),
		VABits:  b.vaBits,
		TLB:     b.tlbCfg,
		PSC:     pscRows(b.pscCfg, int(b.levels)),
	}
}

func (b *x8664) NewCore(i int) Core {
	return &x8664Core{
		walkerCore: walkerCore{w: &b.walker, psc: mmucache.NewPSC(b.pscCfg)},
		tlb:        tlb.New(b.tlbCfg),
	}
}

// pscRows renders the PSC entry counts for levels 2..levels.
func pscRows(cfg mmucache.PSCConfig, levels int) []int {
	rows := make([]int, 0, levels-1)
	for l := 2; l <= levels; l++ {
		rows = append(rows, cfg.EntriesPerLevel[l])
	}
	return rows
}

// x8664Core is one core's translation state on the default backend: the
// two-level TLB plus the shared walker.
type x8664Core struct {
	walkerCore
	tlb *tlb.TLB
}

func (c *x8664Core) Probe(ctx *Ctx, va pt.VirtAddr, write bool) (*tlb.Entry, numa.Cycles, bool) {
	entry, hit := c.tlb.Lookup(va)
	// A store through a read-only cached translation must take the
	// permission fault path: drop the entry and re-walk.
	if hit != tlb.Miss && write && !entry.Leaf.Writable() {
		c.tlb.InvalidatePage(va)
		hit = tlb.Miss
	}
	switch hit {
	case tlb.HitL1:
		return entry, 0, true
	case tlb.HitL2:
		return entry, c.w.cL2TLB, true
	}
	return nil, 0, false
}

func (c *x8664Core) Fill(ctx *Ctx, va pt.VirtAddr, leaf pt.PTE, size pt.PageSize, node numa.NodeID) {
	c.tlb.InsertMapped(va, leaf, size, node)
}

func (c *x8664Core) ShootdownPage(ctx *Ctx, va pt.VirtAddr) {
	c.tlb.InvalidatePage(va)
	c.psc.Flush()
}

func (c *x8664Core) ShootdownRange(ctx *Ctx, vas []pt.VirtAddr) {
	if len(vas) > fullFlushThreshold {
		c.tlb.Flush()
	} else {
		for _, va := range vas {
			c.tlb.InvalidatePage(va)
		}
	}
	c.psc.Flush()
}

func (c *x8664Core) FlushContext(ctx *Ctx) {
	c.tlb.Flush()
	c.psc.Flush()
}

func (c *x8664Core) Reset() {
	c.tlb.Reset()
	c.psc.Reset()
}

func (c *x8664Core) ResetStats() { c.tlb.ResetStats() }

func (c *x8664Core) TLBStats() tlb.Stats { return c.tlb.Stats }
