// Package kernel is the simulated operating system's memory subsystem: the
// environment Mitosis is implemented against. It provides processes with
// virtual address spaces (VMAs), demand paging with first-touch/interleaved
// data placement, transparent huge pages with fragmentation fallback, an
// AutoNUMA-style data-page migration scanner, a scheduler that can migrate
// processes across sockets, and the sysctl + libnuma-style policy surface
// of §6 of the Mitosis paper.
//
// All page-table mutations flow through the Mitosis PV-Ops backend
// (internal/core); with an empty replication mask the backend behaves
// identically to native, exactly as the paper requires.
package kernel

import (
	"errors"
	"sync"
	"sync/atomic"

	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/mmucache"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/translate"
)

// ErrNoProcess is returned when a core has no process scheduled.
var ErrNoProcess = errors.New("kernel: no process scheduled on core")

// ErrBadAddress is returned for operations outside any VMA.
var ErrBadAddress = errors.New("kernel: address not covered by any VMA")

// Costs holds the kernel's software path costs in cycles.
type Costs struct {
	// FaultEntry is the trap + fault-path overhead excluding page-table
	// and allocation work.
	FaultEntry numa.Cycles
	// SyscallEntry is the system-call entry/exit overhead.
	SyscallEntry numa.Cycles
	// PTEVisit is the per-entry loop overhead of range operations
	// (mprotect/munmap iterate PTEs).
	PTEVisit numa.Cycles
	// PageCopy is the cost of copying one 4KB page (data migration).
	PageCopy numa.Cycles
	// FrameAlloc is the allocator cost of one data-frame allocation
	// (zeroing charged separately).
	FrameAlloc numa.Cycles
	// FrameFree is the allocator cost of returning one frame: cheaper
	// than allocation since freed pages are not zeroed (§8.3.2 relies on
	// this asymmetry).
	FrameFree numa.Cycles
	// DirectReclaim is the cost of a failed preferred-node allocation
	// entering reclaim before the kernel falls back off-node: the
	// watermark scan plus a compaction attempt. It fires only when a node
	// refuses an allocation (exhaustion or a pressure floor), so runs
	// that never exhaust a node never pay it — and it is the latency
	// spike that fattens fault tails under memory pressure.
	DirectReclaim numa.Cycles
}

// DefaultCosts returns the calibrated kernel path costs.
func DefaultCosts() Costs {
	return Costs{
		FaultEntry:    900,
		SyscallEntry:  400,
		PTEVisit:      15,
		PageCopy:      2300,
		FrameAlloc:    500,
		FrameFree:     150,
		DirectReclaim: 20000,
	}
}

// Config assembles a Kernel together with the machine it runs on.
type Config struct {
	// Topology of the machine. Defaults to the paper's 4-socket Xeon.
	Topology *numa.Topology
	// CostParams for the memory hierarchy. Defaults to DefaultCostParams.
	CostParams *numa.CostParams
	// FramesPerNode is each node's memory capacity. Defaults to 1M frames
	// (4GB per node).
	FramesPerNode uint64
	// LLC sizes the per-socket page-table line caches; nil selects the
	// scaled default.
	LLC *mmucache.LLCConfig
	// Costs are the kernel path costs; zero value selects DefaultCosts.
	Costs *Costs
	// Hardware selects and sizes the translation-hardware backend; the
	// zero value is the default x86-64 4-level backend. The paging depth
	// comes from the backend (5 for x8664la57).
	Hardware translate.Spec
}

// Kernel is the simulated OS instance plus the hardware it manages.
type Kernel struct {
	topo    *numa.Topology
	cost    *numa.CostModel
	pm      *mem.PhysMem
	machine *hw.Machine
	backend *core.Backend
	cache   *mem.PageCache
	costs   Costs
	levels  uint8

	sysctl core.Sysctl
	thp    bool

	// The fault path is sharded per process: each Process carries its own
	// fault lock (its mmap_sem), so faults from different processes on
	// different sockets proceed concurrently — they share no address-space
	// state, and the structures they do share (per-node frame allocators,
	// the per-node page-cache pools, backend counters) carry their own
	// synchronization. See DESIGN.md "Lock hierarchy".
	//
	// reclaimMu is the one narrow global lock left on that path: it
	// serializes memory-pressure replica reclaim, which walks *all*
	// processes selecting victims and tearing replica rings down. Two
	// concurrent OOM faults must not collapse the same victim twice.
	reclaimMu sync.Mutex
	// globalFault is the machine-wide fault lock of the pre-sharding
	// design, kept as a measurement baseline: SetGlobalFaultLock(true)
	// aliases every process's fault lock to this one mutex so the churn
	// benchmark can quantify exactly what sharding buys (BENCH_churn.json
	// records both modes). Simulated outcomes are identical either way.
	globalFault     sync.Mutex
	globalFaultLock bool

	nextPID  int
	nextVMID int
	procs    map[int]*Process
	// current is the per-core scheduled process. Writes happen only at
	// quiescent points (loadContexts, Deschedule, DestroyProcess); reads
	// happen from concurrent fault handlers without any lock, so the slots
	// are atomic pointers.
	current   []atomic.Pointer[Process]
	nextIntlv int // machine-wide interleave cursor for fresh processes
}

// New builds a kernel and its machine.
func New(cfg Config) *Kernel {
	topo := cfg.Topology
	if topo == nil {
		topo = numa.FourSocketXeon()
	}
	params := numa.DefaultCostParams()
	if cfg.CostParams != nil {
		params = *cfg.CostParams
	}
	cost := numa.NewCostModel(topo, params)
	frames := cfg.FramesPerNode
	if frames == 0 {
		frames = 1 << 20 // 4GB per node
	}
	pm := mem.New(mem.Config{Topology: topo, FramesPerNode: frames})
	llcCfg := mmucache.DefaultLLCConfig()
	if cfg.LLC != nil {
		llcCfg = *cfg.LLC
	}
	costs := DefaultCosts()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	thw, err := translate.New(cfg.Hardware, translate.Deps{Topo: topo, Cost: cost, Mem: pm})
	if err != nil {
		panic("kernel: invalid hardware spec: " + err.Error())
	}
	machine := hw.New(hw.Config{
		Topology: topo, Cost: cost, Mem: pm, LLC: llcCfg,
		Backend: thw,
	})
	cache := mem.NewPageCache(pm, 0)
	k := &Kernel{
		topo:    topo,
		cost:    cost,
		pm:      pm,
		machine: machine,
		backend: core.NewBackend(pm, cost, cache),
		cache:   cache,
		costs:   costs,
		levels:  thw.Levels(),
		nextPID: 1,
		procs:   make(map[int]*Process),
		current: make([]atomic.Pointer[Process], topo.Cores()),
	}
	machine.SetFaultHandler(k)
	return k
}

// Reset restores the kernel and its machine to the state New returned
// them in: no processes or VMs, PID/VM/interleave counters rewound,
// sysctl and THP back to defaults, interference cleared, hardware caches
// and physical memory pristine. Call it only at quiescence (no run in
// flight). The reuse path for recycling a booted kernel across
// independent runs: a reset kernel must be behaviourally
// indistinguishable from a freshly built one.
func (k *Kernel) Reset() {
	clear(k.procs)
	for i := range k.current {
		k.current[i].Store(nil)
	}
	k.nextPID = 1
	k.nextVMID = 0
	k.nextIntlv = 0
	k.globalFaultLock = false
	k.sysctl = core.Sysctl{}
	k.thp = false
	k.cost.ClearLoads()
	k.backend.Reset()
	// The page cache forgets its reserved frames first so physical memory
	// can be reclaimed wholesale; the facade re-applies the sysctl target
	// (Refill over empty memory reproduces the fresh-boot pool exactly).
	k.cache.Reset()
	k.pm.Reset()
	k.machine.Reset()
}

// Topology returns the machine topology.
func (k *Kernel) Topology() *numa.Topology { return k.topo }

// Cost returns the cost model (experiments toggle interference on it).
func (k *Kernel) Cost() *numa.CostModel { return k.cost }

// Mem returns physical memory.
func (k *Kernel) Mem() *mem.PhysMem { return k.pm }

// Machine returns the hardware.
func (k *Kernel) Machine() *hw.Machine { return k.machine }

// Backend returns the Mitosis PV-Ops backend.
func (k *Kernel) Backend() *core.Backend { return k.backend }

// Sysctl returns the mutable system-wide Mitosis policy (§6.1). Changing
// PageCacheTarget takes effect via ApplySysctl.
func (k *Kernel) Sysctl() *core.Sysctl { return &k.sysctl }

// ApplySysctl propagates sysctl changes to the page cache reservation.
func (k *Kernel) ApplySysctl() {
	k.cache.SetTarget(k.sysctl.PageCacheTarget)
	k.cache.Refill()
}

// SetTHP enables or disables transparent huge pages system-wide.
func (k *Kernel) SetTHP(on bool) { k.thp = on }

// THP reports whether transparent huge pages are enabled.
func (k *Kernel) THP() bool { return k.thp }

// Levels returns the paging depth in use.
func (k *Kernel) Levels() uint8 { return k.levels }

// HardwareGeometry returns the translation backend's geometry descriptor
// (backend name, paging depth, VA reach, TLB and PSC sizing).
func (k *Kernel) HardwareGeometry() translate.Geometry {
	return k.machine.Backend().Geometry()
}

// Process returns the process with the given pid, or nil.
func (k *Kernel) Process(pid int) *Process { return k.procs[pid] }

// CurrentOn returns the process scheduled on core, or nil.
func (k *Kernel) CurrentOn(c numa.CoreID) *Process { return k.current[c].Load() }

// SetGlobalFaultLock selects between the sharded per-process fault locks
// (the default) and the legacy machine-wide fault lock. With the global
// lock, every process's fault path serializes on one mutex — the
// pre-sharding mmap_sem behaviour kept as the churn benchmark's baseline.
// Simulated counters are identical in both modes (the lock only changes
// host-side concurrency); call it only at quiescence.
func (k *Kernel) SetGlobalFaultLock(on bool) {
	k.globalFaultLock = on
	for _, p := range k.procs {
		if on {
			p.faultLock = &k.globalFault
		} else {
			p.faultLock = &p.ownFaultMu
		}
	}
}
