package kernel

import (
	"errors"
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// ErrPermission is returned for write faults on read-only VMAs.
var ErrPermission = errors.New("kernel: write to read-only mapping")

// HandleFault implements hw.FaultHandler: the demand-paging path. It
// allocates a data page per the process's placement policy (THP-backed
// where possible), installs the translation through the PV-Ops backend
// (which propagates to replicas when Mitosis is on), and returns the cycle
// cost of the fault.
//
// The handler may be called from several cores at once (concurrent
// AccessBatch callers): every fault takes the kernel's one fault lock on
// entry, so faults serialize machine-wide. The already-mapped check in
// populateOne resolves two cores faulting on the same page (the second
// finds the first's translation and simply retries its walk).
func (k *Kernel) HandleFault(core numa.CoreID, va pt.VirtAddr, write bool) (numa.Cycles, error) {
	k.faultMu.Lock()
	k.faultCore = core
	defer func() {
		k.faultCore = -1
		k.faultMu.Unlock()
	}()
	p := k.current[core]
	if p == nil {
		return 0, ErrNoProcess
	}
	v := p.findVMA(va)
	if v == nil {
		return k.costs.FaultEntry, fmt.Errorf("%w: %#x", ErrBadAddress, uint64(va))
	}
	if write && !v.Writable {
		return k.costs.FaultEntry, fmt.Errorf("%w: %#x", ErrPermission, uint64(va))
	}
	if _, err := k.populateOne(p, v, va, k.topo.SocketOf(core)); err != nil {
		return k.costs.FaultEntry, err
	}
	return k.costs.FaultEntry + drainMeterCycles(p), nil
}

// populateOne maps the page covering va inside v, honouring THP and the
// process's data/page-table placement policies. It returns the page size
// installed (or found already present). Virtualized processes populate
// their guest table instead (guest-kernel + hypervisor work).
func (k *Kernel) populateOne(p *Process, v *VMA, va pt.VirtAddr, socket numa.SocketID) (pt.PageSize, error) {
	if p.guest != nil {
		return k.populateGuestOne(p, v, va, socket)
	}
	// Already mapped (e.g., racing fault or populate overlap)?
	if _, size, ok := p.mapper.Table().Lookup(va); ok {
		return size, nil
	}
	ctx := p.opCtx()
	place := p.place(socket)
	dataNode := p.dataNode(socket)
	flags := pt.FlagUser
	if v.Writable {
		flags |= pt.FlagWrite
	}

	// Try a 2MB mapping when THP is on, the VMA wants it, and the aligned
	// block lies inside the VMA. Huge pages are only allocated on the
	// target node itself (Linux's __GFP_THISNODE THP policy): a local 4KB
	// page beats a remote 2MB page. The block must also be free of 4KB
	// mappings (Linux's pmd_none check): under fragmentation an earlier
	// fault in the block may have fallen back to 4KB, and a later huge
	// allocation that happens to succeed would collide with it.
	if k.thp && v.THP {
		hugeBase := pt.PageBase(va, pt.Size2M)
		if hugeBase >= v.Start && hugeBase+pt.VirtAddr(pt.Size2M.Bytes()) <= v.End &&
			pmdEmpty(p.mapper.Table(), hugeBase) {
			if frame, err := k.pm.AllocHuge(dataNode); err == nil {
				// Zeroing 2MB streams better than 512 separate pages.
				p.Meter.Cycles += 256 * k.cost.Params().PageZero
				p.Meter.Cycles += k.costs.FrameAlloc
				if err := p.mapper.Map(ctx, hugeBase, pt.Size2M, frame, flags, place); err != nil {
					k.pm.FreeHuge(frame)
					return 0, fmt.Errorf("kernel: huge map at %#x: %w", uint64(hugeBase), err)
				}
				return pt.Size2M, nil
			}
			// Fragmentation or memory pressure: fall back to 4KB, the
			// regime of the paper's Figure 11.
		}
	}

	frame, err := k.allocDataReclaiming(p, dataNode)
	if err != nil {
		return 0, err
	}
	params := k.cost.Params()
	zero := params.PageZero
	if k.pm.NodeOf(frame) != dataNode {
		// The allocation spilled off its placement node (exhaustion or a
		// pressure floor): the failed preferred-node attempt entered
		// direct reclaim before falling back, and the zero-fill streams
		// over the interconnect (scaled by the remote/local DRAM latency
		// ratio). On-placement fills are untouched, so runs that never
		// spill are unchanged.
		zero = zero*params.RemoteDRAM/params.LocalDRAM + k.costs.DirectReclaim
	}
	p.Meter.Cycles += zero + k.costs.FrameAlloc
	base := pt.PageBase(va, pt.Size4K)
	if err := p.mapper.Map(ctx, base, pt.Size4K, frame, flags, place); err != nil {
		// Page-table page allocation can hit memory pressure too; replicas
		// are reclaimable caches, so drop them and retry once.
		if errors.Is(err, mem.ErrOutOfMemory) && k.reclaimReplicas(p) > 0 {
			err = p.mapper.Map(ctx, base, pt.Size4K, frame, flags, p.place(socket))
		}
		if err != nil {
			k.pm.Free(frame)
			return 0, fmt.Errorf("kernel: map at %#x: %w", uint64(base), err)
		}
	}
	return pt.Size4K, nil
}

// pmdEmpty reports whether no translation exists under the 2MB-aligned
// block at hugeBase: the walk stops at a non-present entry at level 2 or
// above, so no L1 table (and no leaf of any size) covers the block and a
// huge mapping can be installed without colliding with existing pages —
// the simulator's equivalent of Linux's pmd_none check on the THP fault
// path.
func pmdEmpty(t *pt.Table, hugeBase pt.VirtAddr) bool {
	w := t.Walk(hugeBase)
	return !w.OK && w.Steps[w.N-1].Level >= 2
}

// allocDataWithFallback tries the preferred node first, then the remaining
// nodes in ascending distance order (here: ascending node id).
func (k *Kernel) allocDataWithFallback(preferred numa.NodeID) (mem.FrameID, error) {
	if f, err := k.pm.AllocData(preferred); err == nil {
		return f, nil
	}
	for n := numa.NodeID(0); int(n) < k.topo.Nodes(); n++ {
		if n == preferred {
			continue
		}
		if f, err := k.pm.AllocData(n); err == nil {
			return f, nil
		}
	}
	return mem.NilFrame, mem.ErrOutOfMemory
}

// SplitTHP splits the 2MB mapping covering va into 4KB mappings (the
// khugepaged-reverse path used when memory pressure or mprotect splits a
// region). The backing frames stay in place; only the translation changes.
func (k *Kernel) SplitTHP(p *Process, va pt.VirtAddr) error {
	leaf, size, ok := p.mapper.Table().Lookup(va)
	if !ok || size != pt.Size2M {
		return fmt.Errorf("%w: no 2MB mapping at %#x", ErrBadAddress, uint64(va))
	}
	ctx := p.opCtx()
	core := k.callCore(p, 0, false)
	socket := k.topo.SocketOf(core)
	if err := p.mapper.SplitHuge(ctx, pt.PageBase(va, pt.Size2M), p.place(socket)); err != nil {
		return err
	}
	k.pm.SplitHuge(leaf.Frame())
	k.machine.ShootdownPage(core, pt.PageBase(va, pt.Size2M), p.cores)
	k.machine.AddCycles(core, drainMeterCycles(p))
	return nil
}
