package mem

import (
	"fmt"
	"sync"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// PageCache reserves frames per NUMA node for page-table allocation.
//
// Mitosis requires *strict* allocation: a replica page-table page must live
// on a specific socket's memory, and the allocation may fail if that node is
// full. The paper sidesteps this by reserving pages per socket through a
// sysctl-controlled page cache (§5.1). PageCache is that reservation pool:
// page-table allocations first try the pool and fall back to the general
// allocator, and freed page-table frames refill the pool up to its target
// size.
//
// The pools are locked per node, mirroring the frame allocator, so they
// stay safe for callers outside the kernel's fault lock. The per-node
// pools are LIFO stacks, and processes faulting on different sockets
// touch different pools (first-touch page-table placement), so the locks
// cost nothing on the common path and the pop/push order per node stays
// deterministic.
type PageCache struct {
	pm     *PhysMem
	target uint64 // per-node target size in frames
	pools  [][]FrameID
	mus    []sync.Mutex // one per node, guarding pools[n]
}

// NewPageCache creates a page cache over pm with the given per-node target
// size (in frames). The pools start empty; call Refill to reserve frames.
func NewPageCache(pm *PhysMem, targetPerNode uint64) *PageCache {
	pc := &PageCache{
		pm:     pm,
		target: targetPerNode,
		pools:  make([][]FrameID, pm.Topology().Nodes()),
		mus:    make([]sync.Mutex, pm.Topology().Nodes()),
	}
	return pc
}

// SetTarget changes the per-node target size, mirroring the paper's sysctl
// knob. Shrinking releases surplus frames back to the allocator immediately.
func (pc *PageCache) SetTarget(targetPerNode uint64) {
	pc.target = targetPerNode
	for n := range pc.pools {
		pc.mus[n].Lock()
		for uint64(len(pc.pools[n])) > pc.target {
			f := pc.pools[n][len(pc.pools[n])-1]
			pc.pools[n] = pc.pools[n][:len(pc.pools[n])-1]
			pc.pm.Free(f)
		}
		pc.mus[n].Unlock()
	}
}

// Target returns the per-node target size in frames.
func (pc *PageCache) Target() uint64 { return pc.target }

// Cached returns the number of frames currently reserved for node n.
func (pc *PageCache) Cached(n numa.NodeID) int {
	pc.checkNode(n)
	pc.mus[n].Lock()
	defer pc.mus[n].Unlock()
	return len(pc.pools[n])
}

// Refill tops every node's pool up to the target size, stopping early on a
// node if its memory is exhausted. It returns the total number of frames
// reserved by this call.
func (pc *PageCache) Refill() int {
	total := 0
	for n := range pc.pools {
		node := numa.NodeID(n)
		pc.mus[n].Lock()
		for uint64(len(pc.pools[n])) < pc.target {
			f, err := pc.pm.AllocPageTable(node, 1)
			if err != nil {
				break
			}
			// Parked frames carry level 0 so a stale pointer at a parked
			// frame is distinguishable from any live table; AllocPT
			// rewrites the level when the frame is handed out.
			pc.pm.Meta(f).PTLevel = 0
			pc.pools[n] = append(pc.pools[n], f)
			total++
		}
		pc.mus[n].Unlock()
	}
	return total
}

// AllocPT returns a page-table frame on node n of the given level, taking
// from the reserved pool first and falling back to the general allocator.
func (pc *PageCache) AllocPT(n numa.NodeID, level uint8) (FrameID, error) {
	pc.checkNode(n)
	pc.mus[n].Lock()
	if len(pc.pools[n]) > 0 {
		f := pc.pools[n][len(pc.pools[n])-1]
		pc.pools[n] = pc.pools[n][:len(pc.pools[n])-1]
		pc.mus[n].Unlock()
		meta := pc.pm.Meta(f)
		meta.PTLevel = level
		clear(pc.pm.Table(f)[:])
		return f, nil
	}
	pc.mus[n].Unlock()
	return pc.pm.AllocPageTable(n, level)
}

// FreePT returns a page-table frame to the pool if the pool is below target,
// otherwise releases it to the allocator. The frame's replica linkage must
// already be dissolved by the caller.
func (pc *PageCache) FreePT(f FrameID) {
	meta := pc.pm.Meta(f)
	if meta.Kind != KindPageTable {
		panic(fmt.Sprintf("mem: FreePT on frame %d of kind %v", f, meta.Kind))
	}
	if meta.ReplicaNext != NilFrame {
		panic(fmt.Sprintf("mem: FreePT on frame %d still linked in a replica ring", f))
	}
	if meta.PTLevel == 0 {
		panic(fmt.Sprintf("mem: double FreePT of frame %d (already parked)", f))
	}
	n := pc.pm.NodeOf(f)
	// Poisoned frames must retire (pm.Free handles that) and frames on an
	// offlined node must not be parked for reuse — parking would hand a
	// bad frame back out through AllocPT.
	if pc.pm.Poisoned(f) || pc.pm.NodeOffline(n) {
		pc.pm.Free(f)
		return
	}
	pc.mus[n].Lock()
	if uint64(len(pc.pools[n])) < pc.target {
		meta.PTLevel = 0
		clear(pc.pm.Table(f)[:])
		pc.pools[n] = append(pc.pools[n], f)
		pc.mus[n].Unlock()
		return
	}
	pc.mus[n].Unlock()
	pc.pm.Free(f)
}

// Reset forgets all reserved frames without freeing them and rewinds the
// target to the just-built state. It is the companion of PhysMem.Reset,
// which reclaims every frame wholesale: call pc.Reset first (so the pool
// holds no stale frame IDs), then pm.Reset, then re-apply the sysctl
// target and Refill — first-fit allocation over empty memory reproduces
// the fresh-boot pool exactly.
func (pc *PageCache) Reset() {
	for n := range pc.pools {
		pc.pools[n] = pc.pools[n][:0]
	}
	pc.target = 0
}

// Drain releases all reserved frames back to the allocator.
// It takes each node's lock like the hot-path entry points.
func (pc *PageCache) Drain() {
	for n := range pc.pools {
		pc.mus[n].Lock()
		for _, f := range pc.pools[n] {
			pc.pm.Free(f)
		}
		pc.pools[n] = nil
		pc.mus[n].Unlock()
	}
}

func (pc *PageCache) checkNode(n numa.NodeID) {
	if n < 0 || int(n) >= len(pc.pools) {
		panic(fmt.Sprintf("mem: node %d out of range [0,%d)", n, len(pc.pools)))
	}
}
