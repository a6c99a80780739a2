package kernel

import (
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// RunOn schedules p on the given cores: each core context-switches to p,
// loading the socket-local page-table root (with Mitosis replication, each
// socket gets its own replica root — §5.3). Cores previously running p and
// not in the new set are released.
func (k *Kernel) RunOn(p *Process, cores []numa.CoreID) error {
	for _, c := range cores {
		if cur := k.current[c]; cur != nil && cur != p {
			return fmt.Errorf("kernel: core %d busy with pid %d", c, cur.PID)
		}
	}
	for _, c := range p.cores {
		if !containsCore(cores, c) {
			k.current[c] = nil
			k.machine.ClearContext(c)
		}
	}
	p.cores = append([]numa.CoreID(nil), cores...)
	if len(cores) > 0 {
		p.home = k.topo.SocketOf(cores[0])
	}
	k.loadContexts(p)
	return nil
}

// RunOnSocket schedules p on every core of one socket.
func (k *Kernel) RunOnSocket(p *Process, s numa.SocketID) error {
	return k.RunOn(p, k.topo.CoresOf(s))
}

// RunOnAllSockets schedules p across the whole machine (the multi-socket
// scenario of §3.1/§8.1).
func (k *Kernel) RunOnAllSockets(p *Process) error {
	cores := make([]numa.CoreID, 0, k.topo.Cores())
	for c := numa.CoreID(0); int(c) < k.topo.Cores(); c++ {
		cores = append(cores, c)
	}
	return k.RunOn(p, cores)
}

// Deschedule removes p from all cores.
func (k *Kernel) Deschedule(p *Process) {
	for _, c := range p.cores {
		if k.current[c] == p {
			k.current[c] = nil
			k.machine.ClearContext(c)
		}
	}
	p.cores = nil
}

// loadContexts (re)loads CR3 on all of p's cores, picking the socket-local
// replica root where one exists. Virtualized processes load a guest+nested
// root pair (VM entry) so each vCPU walks socket-local trees in both
// dimensions once gPT/ePT replicas exist.
func (k *Kernel) loadContexts(p *Process) {
	for _, c := range p.cores {
		k.current[c] = p
		s := k.topo.SocketOf(c)
		if p.guest != nil {
			k.machine.LoadVirtContext(c, p.guest.GuestRootFor(s), p.vm.vm.NestedRootFor(s), 4, p.vm.vm.NestedLevels())
		} else {
			k.machine.LoadContext(c, p.space.RootFor(s), k.levels)
		}
		k.machine.SetDataLocality(c, p.dataLocality)
	}
}

// reloadContexts refreshes CR3 after replication-state changes.
func (k *Kernel) reloadContexts(p *Process) {
	if len(p.cores) > 0 {
		k.loadContexts(p)
	}
}

// MigrateOpts selects what moves along with a process in MigrateProcess.
type MigrateOpts struct {
	// Data migrates data pages to the target node (what commodity NUMA
	// balancing eventually does).
	Data bool
	// PageTables migrates page-tables via Mitosis (§5.5) — the capability
	// missing from commodity kernels.
	PageTables bool
	// KeepOrigin retains the origin page-table replica for fast
	// migration back.
	KeepOrigin bool
}

// MigrateProcess moves p from its current socket to target: the workload
// migration scenario (§3.2, §8.2). The process's cores move; data and
// page-tables move only as requested by opts.
func (k *Kernel) MigrateProcess(p *Process, target numa.SocketID, opts MigrateOpts) error {
	n := len(p.cores)
	if n == 0 {
		n = 1
	}
	targetCores := k.topo.CoresOf(target)
	if n < len(targetCores) {
		targetCores = targetCores[:n]
	}
	for _, c := range targetCores {
		if cur := k.current[c]; cur != nil && cur != p {
			return fmt.Errorf("kernel: target core %d busy with pid %d", c, cur.PID)
		}
	}
	k.Deschedule(p)
	targetNode := k.topo.NodeOf(target)
	if opts.PageTables {
		if err := p.space.Migrate(p.opCtx(), targetNode, opts.KeepOrigin); err != nil {
			return fmt.Errorf("kernel: page-table migration: %w", err)
		}
	}
	if err := k.RunOn(p, targetCores); err != nil {
		return err
	}
	if opts.Data {
		k.MigrateData(p, targetNode)
	}
	return nil
}

// MigratePT migrates p's page-tables to the target node via Mitosis's
// replication machinery (§5.5) without moving the process itself, and
// reloads CR3 on its cores. This is the "+M" recovery step of the paper's
// workload-migration experiments: the process and its data already sit on
// one socket while the page-tables are stranded on another.
func (k *Kernel) MigratePT(p *Process, target numa.NodeID, keepOrigin bool) error {
	if err := p.space.Migrate(p.opCtx(), target, keepOrigin); err != nil {
		return fmt.Errorf("kernel: page-table migration: %w", err)
	}
	k.reloadContexts(p)
	if core := k.callCore(p, 0, false); len(p.cores) > 0 {
		k.machine.AddCycles(core, drainMeterCycles(p))
	}
	return nil
}

// SetInterference starts or stops a bandwidth-hogging co-runner on node n
// (the paper uses STREAM, §3.2): accesses targeting n's memory slow down by
// the cost model's interference factor.
func (k *Kernel) SetInterference(n numa.NodeID, on bool) {
	k.cost.SetLoaded(n, on)
}

func containsCore(cores []numa.CoreID, c numa.CoreID) bool {
	for _, x := range cores {
		if x == c {
			return true
		}
	}
	return false
}
