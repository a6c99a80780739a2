package mitosis

import (
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// Proc is a running simulated process.
type Proc struct {
	sys *System
	p   *kernel.Process
}

// Spawn creates and schedules a process from a ProcSpec's name and
// placement (its workload, replication, policy and phases sections are the
// scenario runner's business and are ignored here). An empty socket list
// schedules one worker per socket on every socket.
func (s *System) Spawn(spec ProcSpec) (*Proc, error) {
	if err := spec.Placement.validate("process "+spec.Name, s.k.Topology().Sockets(), s.k.Topology().CoresPerSocket(), s.k.Topology().Nodes()); err != nil {
		return nil, fmt.Errorf("mitosis: %w", err)
	}
	return s.spawn(spec, 0)
}

// spawn is the shared process-construction path of Spawn and Run. The
// placement must already be validated.
func (s *System) spawn(spec ProcSpec, dataLocality float64) (*Proc, error) {
	topo := s.k.Topology()
	pl := spec.Placement
	sockets := pl.Sockets
	if len(sockets) == 0 {
		sockets = make([]int, topo.Sockets())
		for i := range sockets {
			sockets[i] = i
		}
	}
	opts := kernel.ProcessOpts{
		Name:         spec.Name,
		Home:         numa.SocketID(sockets[0]),
		DataLocality: dataLocality,
	}
	switch pl.Data {
	case PlaceInterleave:
		opts.DataPolicy = kernel.Interleave
	case PlaceBind:
		opts.DataPolicy = kernel.Bind
		opts.BindNode = numa.NodeID(pl.DataNode)
	default:
		opts.DataPolicy = kernel.FirstTouch
	}
	if pl.PageTables == PlaceFixed {
		opts.PTPolicy = kernel.PTFixed
		opts.PTNode = numa.NodeID(pl.PTNode)
	}
	if spec.VM != nil {
		if err := spec.VM.validate("process "+spec.Name, topo.Sockets()); err != nil {
			return nil, fmt.Errorf("mitosis: %w", err)
		}
		vm, err := s.k.CreateVM(numa.NodeID(spec.VM.HomeNode))
		if err != nil {
			return nil, fmt.Errorf("mitosis: process %q: %w", spec.Name, err)
		}
		opts.VM = vm
		opts.VMPolicyLayers = spec.VM.PolicyLayers
	}
	p, err := s.k.CreateProcess(opts)
	if err != nil {
		return nil, err
	}
	perSocket := pl.CoresPerSocket
	if perSocket <= 0 {
		perSocket = 1
	}
	// Pick the first free cores of each listed socket, so co-scheduled
	// scenario processes land deterministically without colliding.
	cores := make([]numa.CoreID, 0, len(sockets)*perSocket)
	for _, sock := range sockets {
		free := make([]numa.CoreID, 0, perSocket)
		for _, c := range topo.CoresOf(numa.SocketID(sock)) {
			if s.k.CurrentOn(c) == nil {
				free = append(free, c)
				if len(free) == perSocket {
					break
				}
			}
		}
		if len(free) < perSocket {
			return nil, fmt.Errorf("mitosis: process %q: socket %d has only %d free cores, need %d; reduce cores_per_socket or co-scheduled processes",
				spec.Name, sock, len(free), perSocket)
		}
		cores = append(cores, free...)
	}
	if err := s.k.RunOn(p, cores); err != nil {
		return nil, err
	}
	pr := &Proc{sys: s, p: p}
	if spec.Name != "" {
		s.procs[spec.Name] = pr
	}
	return pr, nil
}

// Process exposes the underlying kernel process.
func (pr *Proc) Process() *kernel.Process { return pr.p }

// Mmap maps an anonymous region of the given size and returns its base.
func (pr *Proc) Mmap(size uint64, populate bool) (uint64, error) {
	pr.sys.Quiesce()
	va, err := pr.sys.k.Mmap(pr.p, size, kernel.MmapOpts{
		Writable: true,
		THP:      pr.sys.k.THP(),
		Populate: populate,
	})
	return uint64(va), err
}

// Munmap unmaps the region starting at base.
func (pr *Proc) Munmap(base uint64) error {
	pr.sys.Quiesce()
	return pr.sys.k.Munmap(pr.p, pt.VirtAddr(base))
}

// Access executes one memory operation on the process's first core.
func (pr *Proc) Access(va uint64, write bool) error {
	cores := pr.p.Cores()
	if len(cores) == 0 {
		return fmt.Errorf("mitosis: process not scheduled")
	}
	return pr.sys.k.Machine().Access(cores[0], pt.VirtAddr(va), write)
}

// AccessOn executes one memory operation on the process's idx-th worker.
func (pr *Proc) AccessOn(worker int, va uint64, write bool) error {
	cores := pr.p.Cores()
	if worker < 0 || worker >= len(cores) {
		return fmt.Errorf("mitosis: worker %d out of range [0,%d)", worker, len(cores))
	}
	return pr.sys.k.Machine().Access(cores[worker], pt.VirtAddr(va), write)
}

// AccessOp is one memory operation of a batch: a virtual address and the
// load/store direction.
type AccessOp struct {
	VA    uint64
	Write bool
}

// AccessBatch executes a batch of memory operations on the process's
// idx-th worker, amortizing the simulator's per-op overhead. It is
// equivalent to (but much faster than) calling AccessOn per element.
// Batches for different workers may run concurrently from their own
// goroutines; such runs are race-free but not bit-reproducible (use Run
// with a Scenario for deterministic parallel runs). The batch drains the
// invalidations its own stores buffered, but not those of batches other
// workers ran concurrently — System.Quiesce drains everyone, and the
// facade methods that require a quiescent machine call it implicitly.
func (pr *Proc) AccessBatch(worker int, ops []AccessOp) error {
	cores := pr.p.Cores()
	if worker < 0 || worker >= len(cores) {
		return fmt.Errorf("mitosis: worker %d out of range [0,%d)", worker, len(cores))
	}
	hops := make([]hw.AccessOp, len(ops))
	for i, op := range ops {
		hops[i] = hw.AccessOp{VA: pt.VirtAddr(op.VA), Write: op.Write}
	}
	m := pr.sys.k.Machine()
	err := m.AccessBatch(cores[worker], hops)
	m.DrainCoherence([]numa.CoreID{cores[worker]})
	return err
}

// ReplicatePageTables enables Mitosis replication on every socket —
// numactl --pgtablerepl=all. Replicas go on socket DRAM only: a walker
// never benefits from a copy on a CPU-less slow-tier node.
func (pr *Proc) ReplicatePageTables() error {
	pr.sys.Quiesce()
	nodes := make([]numa.NodeID, pr.sys.k.Topology().DRAMNodes())
	for i := range nodes {
		nodes[i] = numa.NodeID(i)
	}
	return pr.p.SetReplicationMask(nodes)
}

// ReplicateOn enables replication on the given NUMA nodes only.
func (pr *Proc) ReplicateOn(nodes ...int) error {
	pr.sys.Quiesce()
	ns := make([]numa.NodeID, len(nodes))
	for i, n := range nodes {
		ns[i] = numa.NodeID(n)
	}
	return pr.p.SetReplicationMask(ns)
}

// CollapseReplicas disables replication, returning to a single table.
func (pr *Proc) CollapseReplicas() error {
	pr.sys.Quiesce()
	return pr.p.SetReplicationMask(nil)
}

// Policies lists the built-in replication policies usable with
// PolicySpec: "static" (the sysctl-mask baseline, never
// acts at runtime), "ondemand" (numaPTE-style: replicate to a socket when
// its remote page-walk cycles cross a threshold, deprecate cold replicas)
// and "costadaptive" (Phoenix-style: price replication against thread
// migration with the machine's cost model).
func Policies() []string { return core.PolicyNames() }

// Migrate moves the process to another socket. Data always follows (as
// commodity NUMA balancing would eventually arrange); page-tables follow
// only when migratePT is true — the capability Mitosis adds.
func (pr *Proc) Migrate(socket int, migratePT bool) error {
	pr.sys.Quiesce()
	return pr.sys.k.MigrateProcess(pr.p, numa.SocketID(socket), kernel.MigrateOpts{
		Data:       true,
		PageTables: migratePT,
	})
}

// PageTableDump renders the process's page-table distribution in the
// paper's Figure 3 layout: per level x per socket, pages and remote-entry
// fractions.
func (pr *Proc) PageTableDump() string {
	pr.sys.Quiesce()
	return pt.Snapshot(pr.p.Table()).Format()
}

// Stats is a summary of a process's hardware counters.
type Stats struct {
	Ops        uint64
	Cycles     uint64
	WalkCycles uint64
	Walks      uint64
	// RemoteWalkFraction is the fraction of page-table DRAM reads that
	// crossed the interconnect.
	RemoteWalkFraction float64
	// Replicated reports whether page-table replicas currently exist.
	Replicated bool
}

// Stats aggregates the process's counters across its cores.
func (pr *Proc) Stats() Stats {
	pr.sys.Quiesce()
	var st Stats
	m := pr.sys.k.Machine()
	var walkMem, walkRemote uint64
	for _, c := range pr.p.Cores() {
		cs := m.Stats(c)
		st.Ops += cs.Ops
		st.Cycles += uint64(cs.Cycles)
		st.WalkCycles += uint64(cs.WalkCycles)
		st.Walks += cs.Walks
		walkMem += cs.WalkMemAccesses
		walkRemote += cs.WalkRemoteAccesses
	}
	if walkMem > 0 {
		st.RemoteWalkFraction = float64(walkRemote) / float64(walkMem)
	}
	// More than one holder node means replicas exist — in the host table,
	// or (for virtualized processes) in the guest/nested dimensions.
	st.Replicated = len(pr.p.ReplicaNodes()) > 1
	return st
}

// ResetStats zeroes the machine counters (e.g., after initialization).
func (pr *Proc) ResetStats() {
	pr.sys.Quiesce()
	pr.sys.k.Machine().ResetStats()
}
