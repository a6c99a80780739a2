package kernel

import (
	"fmt"
	"slices"

	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
	"github.com/mitosis-project/mitosis-sim/internal/virt"
)

// DataPolicy selects where data pages are allocated on a fault — the
// paper's first-touch vs interleaved allocation (§2.3, Table 3).
type DataPolicy int

const (
	// FirstTouch allocates on the faulting core's node (Linux default).
	FirstTouch DataPolicy = iota
	// Interleave round-robins data pages across all nodes.
	Interleave
	// Bind allocates strictly on BindNode.
	Bind
)

func (p DataPolicy) String() string {
	switch p {
	case FirstTouch:
		return "first-touch"
	case Interleave:
		return "interleave"
	case Bind:
		return "bind"
	default:
		return fmt.Sprintf("DataPolicy(%d)", int(p))
	}
}

// PTPolicy selects where page-table pages are allocated. The paper modified
// Linux to force page-table allocations onto a fixed socket for the
// workload-migration analysis (§3.2); PTFixed reproduces that knob.
type PTPolicy int

const (
	// PTFirstTouch allocates page-table pages on the faulting core's node
	// (native Linux behaviour; leads to the skew of §3.1).
	PTFirstTouch PTPolicy = iota
	// PTFixed forces page-table pages onto PTNode.
	PTFixed
)

// ProcessOpts configures CreateProcess.
type ProcessOpts struct {
	// Name labels the process in dumps.
	Name string
	// DataPolicy is the data placement policy (default FirstTouch).
	DataPolicy DataPolicy
	// BindNode is the node for Bind data policy.
	BindNode numa.NodeID
	// PTPolicy is the page-table placement policy.
	PTPolicy PTPolicy
	// PTNode is the node for PTFixed.
	PTNode numa.NodeID
	// Home is the socket the process starts on; its first core's node
	// hosts the root page-table.
	Home numa.SocketID
	// DataLocality is the probability a data access hits the cache
	// hierarchy (workload parameter passed to the hardware model).
	DataLocality float64
	// VM, when set, runs the process inside the given virtual machine:
	// its address space becomes a guest page-table (gVA -> gPA) nested
	// under the VM's gPA -> hPA table, and its cores execute virtualized
	// contexts with two-dimensional walks. Guest page-table pages are
	// backed on PTNode when PTPolicy is PTFixed, else on the VM's home
	// node (the guest has no NUMA visibility of its own).
	VM *VM
	// VMPolicyLayers selects which dimensions a runtime replication
	// policy acts on for a virtualized process: VMLayerGPT, VMLayerEPT or
	// VMLayerBoth (default).
	VMPolicyLayers string
}

// Process is the simulated process: an address space plus scheduling state.
type Process struct {
	PID  int
	Name string

	kernel *Kernel
	mapper *pvops.Mapper
	space  *core.Space
	vmas   []*VMA

	// vm and guest are set for virtualized processes: the VM the process
	// runs in and its guest page-table. The host mapper/space above stay
	// allocated but empty — translation happens in the guest dimension.
	vm             *VM
	guest          *virt.GuestSpace
	vmPolicyLayers string

	dataPolicy DataPolicy
	bindNode   numa.NodeID
	ptPolicy   PTPolicy
	ptNode     numa.NodeID

	// requestedMask is what the process asked for via
	// numa_set_pgtable_replication_mask; the effective mask also depends
	// on the sysctl mode.
	requestedMask []numa.NodeID

	cores        []numa.CoreID
	home         numa.SocketID
	dataLocality float64

	// policyEngine is the attached replication-policy engine, if any;
	// memory-pressure reclaim consults its policy before tearing replicas
	// down.
	policyEngine *PolicyEngine
	// tierEngine is the attached memory-tiering engine, if any.
	tierEngine *TierEngine
	// bgRepl counts in-flight background replications (incremental copies
	// started but not yet finished or aborted). Reclaim must not collapse
	// the replica rings under an unfinished copy.
	bgRepl int

	nextMmap  pt.VirtAddr
	intlvNext int

	// Meter accumulates the kernel work done on behalf of the process.
	Meter pvops.Meter
}

// mmapBase is the bottom of the mmap area: 1TB, giving headroom below the
// 48-bit canonical boundary.
const mmapBase = pt.VirtAddr(1) << 40

// CreateProcess builds a process with an empty address space. The root
// page-table page is allocated per the process's page-table policy.
func (k *Kernel) CreateProcess(opts ProcessOpts) (*Process, error) {
	p := &Process{
		PID:          k.nextPID,
		Name:         opts.Name,
		kernel:       k,
		dataPolicy:   opts.DataPolicy,
		bindNode:     opts.BindNode,
		ptPolicy:     opts.PTPolicy,
		ptNode:       opts.PTNode,
		home:         opts.Home,
		dataLocality: opts.DataLocality,
		nextMmap:     mmapBase,
	}
	k.nextPID++

	rootNode := k.topo.NodeOf(opts.Home)
	if p.ptPolicy == PTFixed {
		rootNode = p.ptNode
	}
	ctx := &pvops.OpCtx{Socket: opts.Home, Meter: &p.Meter}
	mp, err := pvops.NewMapper(ctx, k.pm, k.backend, k.levels, pvops.PTPlacement{Primary: rootNode})
	if err != nil {
		return nil, fmt.Errorf("kernel: creating process: %w", err)
	}
	p.mapper = mp
	p.space = core.NewSpace(k.pm, k.backend, mp)
	if opts.VM != nil {
		if k.levels != 4 {
			return nil, fmt.Errorf("kernel: guest processes require 4-level paging (kernel runs %d-level)", k.levels)
		}
		layers, err := normalizeVMLayers(opts.VMPolicyLayers)
		if err != nil {
			return nil, err
		}
		gptHome := opts.VM.vm.HomeNode()
		if p.ptPolicy == PTFixed {
			gptHome = p.ptNode
		}
		gs, err := opts.VM.vm.NewGuestSpace(gptHome)
		if err != nil {
			return nil, fmt.Errorf("kernel: creating guest space: %w", err)
		}
		p.vm = opts.VM
		p.guest = gs
		p.vmPolicyLayers = layers
	}
	k.procs[p.PID] = p
	return p, nil
}

// DestroyProcess tears down the process: unmaps everything, frees all
// page-table pages and replicas, and releases its cores.
func (k *Kernel) DestroyProcess(p *Process) {
	for _, c := range p.cores {
		if k.current[c] == p {
			k.current[c] = nil
			k.machine.ClearContext(c)
		}
	}
	ctx := p.opCtx()
	// Free data frames still mapped.
	for _, v := range p.vmas {
		p.forEachMapped(v, func(va pt.VirtAddr, leaf pt.PTE, size pt.PageSize) {
			p.freeDataPage(leaf, size)
		})
	}
	p.space.Collapse(ctx)
	p.mapper.Destroy(ctx)
	p.vmas = nil
	delete(k.procs, p.PID)
}

// Space returns the process's Mitosis replication state.
func (p *Process) Space() *core.Space { return p.space }

// PolicyEngine returns the attached replication-policy engine, or nil.
func (p *Process) PolicyEngine() *PolicyEngine { return p.policyEngine }

// TierEngine returns the attached memory-tiering engine, or nil.
func (p *Process) TierEngine() *TierEngine { return p.tierEngine }

// Mapper returns the process's page-table mapper.
func (p *Process) Mapper() *pvops.Mapper { return p.mapper }

// Table returns a read-only view of the primary page-table.
func (p *Process) Table() *pt.Table { return p.mapper.Table() }

// Cores returns the cores the process is scheduled on.
func (p *Process) Cores() []numa.CoreID { return p.cores }

// Home returns the process's home socket.
func (p *Process) Home() numa.SocketID { return p.home }

// SetPTPolicy changes the page-table placement policy for future
// allocations (the paper's forced-socket knob).
func (p *Process) SetPTPolicy(pol PTPolicy, node numa.NodeID) {
	p.ptPolicy = pol
	p.ptNode = node
}

// SetReplicationMask is numa_set_pgtable_replication_mask (Listing 2): the
// process requests replicas on the given nodes. The effective mask depends
// on the system-wide sysctl mode; when it changes, existing tables are
// replicated or collapsed immediately.
func (p *Process) SetReplicationMask(nodes []numa.NodeID) error {
	p.requestedMask = slices.Clone(nodes)
	return p.applyReplication()
}

func (p *Process) applyReplication() error {
	k := p.kernel
	eff := k.sysctl.EffectiveMask(p.requestedMask, k.topo.Sockets())
	ctx := p.opCtx()
	if err := p.space.SetMask(ctx, eff); err != nil {
		return err
	}
	// Eager replication stalls the caller: the copy cost lands on the
	// process's core (contrast with StartBackgroundReplication).
	if len(p.cores) > 0 {
		k.machine.AddCycles(k.callCore(p, 0, false), drainMeterCycles(p))
	}
	k.reloadContexts(p)
	return nil
}

// opCtx returns the kernel execution context for work done on behalf of
// the process, billed to its meter, executing on its home socket.
func (p *Process) opCtx() *pvops.OpCtx {
	return &pvops.OpCtx{Socket: p.home, Meter: &p.Meter}
}

// place returns the page-table placement for a fault handled on socket s.
// A placement targeting an offlined node redirects to the lowest online
// node: the socket's cores keep running after a memory hot-remove, but
// new page-table pages must come from live memory.
func (p *Process) place(s numa.SocketID) pvops.PTPlacement {
	node := p.kernel.topo.NodeOf(s)
	if p.ptPolicy == PTFixed {
		node = p.ptNode
	}
	if p.kernel.pm.NodeOffline(node) {
		node = p.kernel.onlineNode(node)
	}
	return pvops.PTPlacement{Primary: node, Replicas: p.space.Mask()}
}

// onlineNode returns the lowest online node, preferring any over the
// excluded (offlined) one.
func (k *Kernel) onlineNode(exclude numa.NodeID) numa.NodeID {
	for n := 0; n < k.topo.Nodes(); n++ {
		if id := numa.NodeID(n); id != exclude && !k.pm.NodeOffline(id) {
			return id
		}
	}
	return exclude
}

// dataNode picks the node for a new data page faulted from socket s.
func (p *Process) dataNode(s numa.SocketID) numa.NodeID {
	switch p.dataPolicy {
	case Interleave:
		// Interleave spans the DRAM nodes only: Linux's default policy
		// never spills onto CPU-less slow tiers; tier placement is the
		// tiering policy's job. Identical to Nodes() on flat machines.
		n := numa.NodeID(p.intlvNext % p.kernel.topo.DRAMNodes())
		p.intlvNext++
		return n
	case Bind:
		return p.bindNode
	default:
		return p.kernel.topo.NodeOf(s)
	}
}

// freeDataPage releases the data frame(s) behind a leaf entry.
func (p *Process) freeDataPage(leaf pt.PTE, size pt.PageSize) {
	f := leaf.Frame()
	meta := p.kernel.pm.Meta(f)
	switch {
	case size == pt.Size2M && meta.HugeHead:
		p.kernel.pm.FreeHuge(f)
	case meta.Kind == mem.KindData:
		p.kernel.pm.Free(f)
	}
}
