// Package translate defines the pluggable translation-hardware backend
// interface: the per-core translate step (TLB probe, page walk, fill),
// the shootdown/flush hooks, the geometry descriptor, and the counter
// schema the machine charges walks against. The execution engine in
// package hw owns cores, batching, coherence and cost constants; a
// Backend owns everything between "the core issued a virtual address"
// and "here is the leaf translation and what it cost".
//
// Three backends ship:
//
//   - x8664: the default — 4-level x86-64 tables, a two-level
//     set-associative TLB with per-size-class probe counts, paging-
//     structure caches (PSC), the nested 2D walk for virtualized
//     contexts, and the single-writer LLC discipline for page-table
//     lines. This is a verbatim extraction of the walk path the
//     committed BENCH records were produced on: every record replays
//     bit-identically on it.
//   - x8664la57: 5-level tables (LA57) — one extra walk level, an extra
//     PSC row, and 57-bit VA reach. Table-page accounting through
//     pt/mem is unchanged.
//   - victima: a Victima-style design (arXiv 2310.04158) — no L2 TLB;
//     software-managed TLB-block entries live in the socket's LLC sets
//     alongside page-table lines, so translations and PT lines compete
//     for the same capacity.
//
// The package deliberately does not import hw (hw imports translate);
// machine services a backend needs per call travel in Ctx.
package translate

import (
	"errors"
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/mmucache"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/tlb"
)

// Backend names accepted by Spec.Backend.
const (
	BackendX8664     = "x8664"
	BackendX8664LA57 = "x8664la57"
	BackendVictima   = "victima"
)

// Ctx is the machine context a backend call runs in. The machine keeps
// one Ctx per core and updates it at context switches (CR3/Levels/
// Virt/GuestRoot/NestedLevels) and per call (Stats); the topology
// fields and the LLC are fixed at construction. Backends must treat it
// as read-only except Pending (store walks append ownership events).
//
// Shootdown and flush hooks may be invoked with a stale Stats pointer
// and must not touch it.
type Ctx struct {
	// Core / Socket / Home locate the calling core; Home is the
	// socket's local DRAM node.
	Core   numa.CoreID
	Socket numa.SocketID
	Home   numa.NodeID
	// CR3 is the loaded page-table root (the nested root nCR3 under
	// Virt); mem.NilFrame when no context is loaded.
	CR3 mem.FrameID
	// Levels is the loaded context's walk depth (the guest depth under
	// Virt).
	Levels uint8
	// Virt marks a virtualized (nested-paging) context: TLB misses go
	// through the two-dimensional walk.
	Virt bool
	// GuestRoot is the guest CR3 as a guest-physical frame number.
	GuestRoot uint64
	// NestedLevels is the nested (ePT) table depth.
	NestedLevels uint8
	// LLC is the socket's page-table line cache; Owned selects the
	// lock-free single-writer path (the round-based engine's
	// discipline).
	LLC   *mmucache.LLC
	Owned bool
	// Stats receives this call's counter increments — the machine
	// points it at the live accumulator before every Probe/WalkOnce.
	Stats *CoreStats
	// Pending buffers the page-table lines store walks took exclusive
	// ownership of; the machine applies them to other sockets' LLCs at
	// deterministic points.
	Pending *[]mmucache.LineID
}

// Core is one core's translation state, owned by a Backend. The
// returned entry pointers alias backend-internal storage and are valid
// until the next operation on the same Core. Calls on the same Core
// are never concurrent; calls on different Cores of one Backend may be
// (concurrent AccessBatch callers on different cores).
type Core interface {
	// Probe consults the core's translation caches for va. It handles
	// the store-through-read-only permission drop internally (the entry
	// is dropped and a miss reported, so the walk takes the permission
	// fault). Returns the entry, extra cycles beyond the first-level
	// hit cost (L2 latency, LLC-resident block latency, ...), and
	// whether the probe hit.
	Probe(ctx *Ctx, va pt.VirtAddr, write bool) (*tlb.Entry, numa.Cycles, bool)
	// WalkOnce performs a single table-walk attempt (no fault
	// handling): the native walk, or the 2D guest/nested walk under
	// ctx.Virt. ok=false reports a page fault (non-present or
	// permission-failing entry); the machine traps to the kernel and
	// retries.
	WalkOnce(ctx *Ctx, va pt.VirtAddr, write bool) (pt.PTE, pt.PageSize, numa.Cycles, bool)
	// Fill installs a completed walk's translation (leaf, page size,
	// mapping node) into the core's caches.
	Fill(ctx *Ctx, va pt.VirtAddr, leaf pt.PTE, size pt.PageSize, node numa.NodeID)
	// ShootdownPage is the IPI receiver's work for a single-page
	// shootdown: drop every translation covering va, flush walk caches.
	ShootdownPage(ctx *Ctx, va pt.VirtAddr)
	// ShootdownRange is the batched equivalent (flush_tlb_range):
	// backends apply their own full-flush threshold.
	ShootdownRange(ctx *Ctx, vas []pt.VirtAddr)
	// FlushContext empties the translation caches (context switch
	// without ASIDs, or a global shootdown on this core).
	FlushContext(ctx *Ctx)
	// Reset restores the just-built state (contents and counters); the
	// machine-recycling path.
	Reset()
	// ResetStats zeroes counters without touching cache contents.
	ResetStats()
	// TLBStats returns the core's TLB counters.
	TLBStats() tlb.Stats
}

// Backend builds per-core translation state and describes itself.
type Backend interface {
	// Name is the canonical backend name (BackendX8664, ...).
	Name() string
	// Levels is the native walk depth (4 or 5).
	Levels() uint8
	// Geometry describes the backend's translation hardware.
	Geometry() Geometry
	// NewCore builds translation state for core index i.
	NewCore(i int) Core
}

// Geometry describes a backend's translation hardware: what ptdump
// -geometry prints and what RunResult echoes so BENCH records are
// self-describing.
type Geometry struct {
	Backend string
	// Levels is the walk depth; VABits the translated virtual-address
	// width (48 for 4-level, 57 for LA57).
	Levels int
	VABits int
	// TLB is the per-core TLB geometry (L2Entries 0 = no L2 TLB).
	TLB tlb.Config
	// PSC lists the paging-structure cache entries per level, index 0
	// being the level-2 row.
	PSC []int
}

// Deps are the machine-wide services a backend is built against.
type Deps struct {
	Topo *numa.Topology
	Cost *numa.CostModel
	Mem  *mem.PhysMem
}

// Spec selects and sizes a translation backend. The zero value is the
// default x86-64 backend with default geometry.
type Spec struct {
	// Backend is one of the Backend* names ("" = BackendX8664).
	Backend string
	// TLB sizes the TLB arrays; the zero value selects the backend's
	// default geometry (for victima: DefaultConfig with the L2
	// removed).
	TLB tlb.Config
	// PSC sizes the paging-structure caches; nil selects the default.
	// A pointer, because the zero PSCConfig is meaningful (no PSC).
	PSC *mmucache.PSCConfig
}

// Validate reports whether the spec names a known backend with
// buildable geometry, without constructing anything.
func (s Spec) Validate() error {
	_, _, err := s.resolve()
	return err
}

// resolve applies defaults and checks geometry.
func (s Spec) resolve() (tlb.Config, mmucache.PSCConfig, error) {
	name := s.Backend
	if name == "" {
		name = BackendX8664
	}
	tlbCfg := s.TLB
	if tlbCfg == (tlb.Config{}) {
		tlbCfg = tlb.DefaultConfig()
		if name == BackendVictima {
			tlbCfg.L2Entries, tlbCfg.L2Ways = 0, 0
		}
	}
	pscCfg := mmucache.DefaultPSCConfig()
	if s.PSC != nil {
		pscCfg = *s.PSC
	}
	switch name {
	case BackendX8664, BackendX8664LA57:
		if tlbCfg.L2Entries == 0 {
			return tlbCfg, pscCfg, fmt.Errorf("translate: %s requires an L2 TLB (L2Entries > 0)", name)
		}
	case BackendVictima:
		if tlbCfg.L2Entries != 0 || tlbCfg.L2Ways != 0 {
			return tlbCfg, pscCfg, errors.New("translate: victima has no L2 TLB (L2Entries/L2Ways must be 0)")
		}
	default:
		return tlbCfg, pscCfg, fmt.Errorf("translate: unknown backend %q (want %s, %s or %s)",
			s.Backend, BackendX8664, BackendX8664LA57, BackendVictima)
	}
	if err := checkArray("L1-4K", tlbCfg.L1Entries4K, tlbCfg.L1Ways4K, false); err != nil {
		return tlbCfg, pscCfg, err
	}
	if err := checkArray("L1-2M", tlbCfg.L1Entries2M, tlbCfg.L1Ways2M, false); err != nil {
		return tlbCfg, pscCfg, err
	}
	if err := checkArray("L2", tlbCfg.L2Entries, tlbCfg.L2Ways, true); err != nil {
		return tlbCfg, pscCfg, err
	}
	for l, n := range pscCfg.EntriesPerLevel {
		if n < 0 {
			return tlbCfg, pscCfg, fmt.Errorf("translate: PSC level %d: negative entry count %d", l, n)
		}
		if n > maxWays {
			return tlbCfg, pscCfg, fmt.Errorf("translate: PSC level %d: %d entries exceed the limit of %d", l, n, maxWays)
		}
	}
	return tlbCfg, pscCfg, nil
}

// Geometry limits. TLB sets and PSC rows keep their LRU order in bytes,
// so associativity (and a fully associative PSC row) stops at 256; the
// entry cap keeps every core's arrays small enough to allocate.
const maxWays, maxEntries = 256, 1 << 16

// checkArray mirrors the tlb array invariants as errors instead of the
// constructor's panics, so bad geometry surfaces at validation time.
func checkArray(name string, entries, ways int, allowZero bool) error {
	if entries == 0 && ways == 0 && allowZero {
		return nil
	}
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		return fmt.Errorf("translate: %s: entries (%d) must be a positive multiple of ways (%d)", name, entries, ways)
	}
	if n := entries / ways; n&(n-1) != 0 {
		return fmt.Errorf("translate: %s: set count %d must be a power of two", name, n)
	}
	if entries > maxEntries || ways > maxWays {
		return fmt.Errorf("translate: %s: %d entries (%d-way) exceed the limits of %d entries and %d ways",
			name, entries, ways, maxEntries, maxWays)
	}
	return nil
}

// New builds the backend spec describes.
func New(spec Spec, deps Deps) (Backend, error) {
	if deps.Topo == nil || deps.Cost == nil || deps.Mem == nil {
		return nil, errors.New("translate: Deps requires Topo, Cost and Mem")
	}
	tlbCfg, pscCfg, err := spec.resolve()
	if err != nil {
		return nil, err
	}
	name := spec.Backend
	if name == "" {
		name = BackendX8664
	}
	switch name {
	case BackendX8664:
		return newX8664(BackendX8664, 4, 48, tlbCfg, pscCfg, deps), nil
	case BackendX8664LA57:
		return newX8664(BackendX8664LA57, 5, 57, tlbCfg, pscCfg, deps), nil
	default:
		return newVictima(tlbCfg, pscCfg, deps), nil
	}
}
