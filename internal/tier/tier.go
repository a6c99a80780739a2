// Package tier holds the memory-tiering policy layer: per-page hotness
// tracking (Tracker) and promotion/demotion decisions (Policy) for machines
// whose memory nodes span DRAM, CXL and NVM tiers (numa.MemTier).
//
// The package is deliberately mechanism-free, mirroring internal/core's
// replication policies: it sees an abstract, deterministic snapshot of the
// address space (Telemetry, pages in VA order) and returns Actions; the
// kernel's TierEngine owns the walk that builds the snapshot and the Mover
// that applies the actions (bounded pages per tick, remap + shootdown
// through the normal coherence path). Splitting this way keeps the policy
// unit-testable without a kernel and keeps the determinism contract in one
// place — the engine ticks at round barriers only, and everything here is
// pure computation over the snapshot.
//
// The structure follows the memtier split in intel/cri-resource-manager:
// Tracker (who is hot), Policy (who should move), Mover (bounded copying) —
// with the Mover living kernel-side where the page tables are.
package tier

import (
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// NumTiers is the number of memory tiers the histogram buckets by
// (numa.TierDRAM, TierCXL, TierNVM).
const NumTiers = 3

// Histogram buckets a process's mapped pages by tier and hotness, in 4KB
// page units. It is the tracker's telemetry export: "how much of this
// process is hot, and where does it live".
type Histogram struct {
	// Hot[t] counts 4KB pages on tier t classified hot by the tracker.
	Hot [NumTiers]uint64 `json:"hot"`
	// Cold[t] counts the remaining (not-hot) 4KB pages on tier t.
	Cold [NumTiers]uint64 `json:"cold"`
}

// Add accounts pages 4KB units on tier t under the given hotness.
func (h *Histogram) Add(t numa.MemTier, hot bool, pages uint64) {
	if hot {
		h.Hot[t] += pages
	} else {
		h.Cold[t] += pages
	}
}

// Total returns the histogram's page count.
func (h *Histogram) Total() uint64 {
	var n uint64
	for i := 0; i < NumTiers; i++ {
		n += h.Hot[i] + h.Cold[i]
	}
	return n
}

// OnSlowTiers returns the pages living on non-DRAM tiers.
func (h *Histogram) OnSlowTiers() uint64 {
	var n uint64
	for i := 1; i < NumTiers; i++ {
		n += h.Hot[i] + h.Cold[i]
	}
	return n
}

// PageView is one mapped page as the policy sees it: placement plus the
// tracker's classification. Views arrive in ascending VA order — part of
// the determinism contract.
type PageView struct {
	VA   pt.VirtAddr
	Size pt.PageSize
	// Node is the memory node backing the page; Tier its media tier.
	Node numa.NodeID
	Tier numa.MemTier
	// Score is the tracker's decayed access score; Idle the consecutive
	// ticks the page went unsampled.
	Score uint64
	Idle  int
	// Hot and Cold are the tracker's classification (Score >= HotThreshold
	// resp. Idle >= ColdTicks). A page can be neither: warm pages neither
	// promote nor demote.
	Hot, Cold bool
}

// Telemetry is one tick's snapshot handed to the policy.
type Telemetry struct {
	// Round is the engine round the barrier closed.
	Round int
	// Pages lists the process's mapped data pages in VA order.
	Pages []PageView
	// Hist is the tick's per-tier hot/cold histogram over Pages.
	Hist Histogram
	// PTNode is the node holding the primary page-table; PTTier its tier.
	// Replicas are capped to DRAM sockets by the kernel, so the primary is
	// the only table copy that can sit on a slow tier.
	PTNode numa.NodeID
	PTTier numa.MemTier
	// HomeNode is the DRAM node of the process's home socket — the promote
	// target.
	HomeNode numa.NodeID
	// TierNodes lists the machine's slow-tier nodes in node order — the
	// demotion ladder (DRAM -> TierNodes[0] -> TierNodes[1] -> ...).
	TierNodes []numa.NodeID
}

// ActionKind discriminates tier actions.
type ActionKind int

const (
	// Promote moves a data page to a faster node (Target).
	Promote ActionKind = iota
	// Demote moves a data page to a slower node (Target).
	Demote
	// MovePT migrates the primary page-table to Target — the policy's
	// answer to "should page-table pages live on a slow tier".
	MovePT
)

func (k ActionKind) String() string {
	switch k {
	case Promote:
		return "promote"
	case Demote:
		return "demote"
	case MovePT:
		return "movept"
	}
	return fmt.Sprintf("ActionKind(%d)", int(k))
}

// Action is one tier placement decision. For Promote/Demote, VA and Size
// identify the page; for MovePT only Target matters.
type Action struct {
	Kind   ActionKind
	VA     pt.VirtAddr
	Size   pt.PageSize
	Target numa.NodeID
}

func (a Action) String() string {
	if a.Kind == MovePT {
		return fmt.Sprintf("movept->n%d", a.Target)
	}
	return fmt.Sprintf("%v@%#x->n%d", a.Kind, uint64(a.VA), a.Target)
}

// Policy decides tier placement from one tick's snapshot. Decide must be a
// pure function of the telemetry and the policy's own deterministic state:
// the engine ticks it at round barriers, and the
// resulting action sequence is part of the replayable counter stream. The
// mover bounds how many of the returned actions are applied per tick;
// policies should emit candidates in priority order.
type Policy interface {
	Name() string
	Decide(t *Telemetry) []Action
}
