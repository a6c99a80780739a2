package kernel

import (
	"errors"
	"fmt"
	"slices"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/virt"
)

// VM is a kernel-managed virtual machine: guest-physical memory backed by
// host frames through a nested page-table built on the Mitosis PV-Ops
// backend, so the nested table replicates with the ordinary machinery
// (§7.4). Processes created with ProcessOpts.VM run *inside* the VM: their
// address spaces are guest page-tables, their faults populate guest
// mappings backed by nested translations, and their TLB misses perform the
// hardware's two-dimensional walk.
type VM struct {
	vm *virt.VM
	id int
}

// Virt exposes the underlying virt.VM (experiments, advanced use).
func (v *VM) Virt() *virt.VM { return v.vm }

// HomeNode returns the node the hypervisor builds the VM's nested tables
// on.
func (v *VM) HomeNode() numa.NodeID { return v.vm.HomeNode() }

// CreateVM builds a VM whose nested page-table lives on home — the
// hypervisor's own first-touch node. The construction cycles accumulate on
// the VM's meter and are billed to the first guest fault.
func (k *Kernel) CreateVM(home numa.NodeID) (*VM, error) {
	if home < 0 || int(home) >= k.topo.Nodes() {
		return nil, fmt.Errorf("kernel: VM home node %d out of range [0,%d)", home, k.topo.Nodes())
	}
	v, err := virt.NewVM(k.pm, k.cost, k.backend, home)
	if err != nil {
		return nil, fmt.Errorf("kernel: creating VM: %w", err)
	}
	k.nextVMID++
	return &VM{vm: v, id: k.nextVMID}, nil
}

// VM policy-layer selectors: which page-table dimensions a runtime
// policy's replicate/drop actions act on for a virtualized process.
const (
	// VMLayerGPT targets the guest page-table only.
	VMLayerGPT = "gpt"
	// VMLayerEPT targets the nested (extended) page-table only.
	VMLayerEPT = "ept"
	// VMLayerBoth targets both dimensions (the default).
	VMLayerBoth = "both"
)

// GuestSpace returns the process's guest page-table, or nil for native
// processes.
func (p *Process) GuestSpace() *virt.GuestSpace { return p.guest }

// VM returns the machine the process runs in, or nil for native processes.
func (p *Process) VM() *VM { return p.vm }

// ReplicaNodes returns the nodes holding a copy of the process's
// translation structures: the host page-table replica set for native
// processes, the union of guest- and nested-table replica nodes for
// virtualized ones.
func (p *Process) ReplicaNodes() []numa.NodeID {
	if p.guest == nil {
		return p.space.ReplicaNodes()
	}
	nodes := slices.Clone(p.guest.ReplicaNodes())
	for _, n := range p.vm.vm.NestedReplicaNodes() {
		if !slices.Contains(nodes, n) {
			nodes = append(nodes, n)
		}
	}
	slices.Sort(nodes)
	return nodes
}

// policyPTPages returns the page-table page count replication policies
// price their copies against.
func (p *Process) policyPTPages() int {
	if p.guest == nil {
		return p.space.PTPageCount()
	}
	return p.guest.PTPageCount()
}

// populateGuestOne is the virtualized counterpart of populateOne: the
// guest kernel maps the faulting page in the guest table (backed by a
// guest frame whose host backing follows the process's data policy), and
// the hypervisor extends the nested table for the new guest memory. Guest
// page-table pages are backed on the guest space's home node — the node
// the guest "booted" on; the guest has no NUMA visibility, so first-touch
// placement does not apply inside it.
func (k *Kernel) populateGuestOne(p *Process, v *VMA, va pt.VirtAddr, socket numa.SocketID) (pt.PageSize, error) {
	if _, size, ok := p.guest.Lookup(va); ok {
		return size, nil
	}
	vm := p.vm.vm
	gptNode := p.guest.HomeNode()
	dataNode := p.dataNode(socket)
	flags := pt.FlagUser
	if v.Writable {
		flags |= pt.FlagWrite
	}

	// Try a guest 2MB mapping when THP is on: a host huge page backs a
	// 2MB-contiguous guest-physical block with a single nested 2MB leaf,
	// so the composed translation stays 2MB-grained end to end. As on the
	// native path, the block must be free of existing guest 4KB mappings
	// (the guest kernel's pmd_none check).
	if k.thp && v.THP {
		hugeBase := pt.PageBase(va, pt.Size2M)
		if hugeBase >= v.Start && hugeBase+pt.VirtAddr(pt.Size2M.Bytes()) <= v.End &&
			p.guest.PMDEmpty(hugeBase) {
			if gf, err := vm.AllocGuestHuge(dataNode); err == nil {
				p.Meter.Cycles += 256 * k.cost.Params().PageZero
				p.Meter.Cycles += k.costs.FrameAlloc
				if err := p.guest.Map(hugeBase, gf, pt.Size2M, flags, gptNode); err != nil {
					return 0, fmt.Errorf("kernel: guest huge map at %#x: %w", uint64(hugeBase), err)
				}
				p.Meter.Cycles += vm.DrainCycles()
				return pt.Size2M, nil
			}
			// Fragmentation or pressure: fall back to 4KB, as on the host.
		}
	}

	gf, err := vm.AllocGuestFrame(dataNode)
	if err != nil {
		// Host replicas are reclaimable caches (as on the native path):
		// under memory pressure, collapse them and retry once before
		// failing the guest fault.
		if errors.Is(err, mem.ErrOutOfMemory) && k.reclaimReplicas(p) > 0 {
			gf, err = vm.AllocGuestFrame(dataNode)
		}
		if err != nil {
			return 0, err
		}
	}
	p.Meter.Cycles += k.cost.Params().PageZero + k.costs.FrameAlloc
	base := pt.PageBase(va, pt.Size4K)
	if err := p.guest.Map(base, gf, pt.Size4K, flags, gptNode); err != nil {
		return 0, fmt.Errorf("kernel: guest map at %#x: %w", uint64(base), err)
	}
	// Hypervisor work (nested-table growth, guest-table frame backing)
	// lands on the faulting core with the rest of the fault cost.
	p.Meter.Cycles += vm.DrainCycles()
	return pt.Size4K, nil
}

// normalizeVMLayers resolves the policy-layer selector, defaulting to
// both dimensions.
func normalizeVMLayers(layers string) (string, error) {
	switch layers {
	case "", VMLayerBoth:
		return VMLayerBoth, nil
	case VMLayerGPT, VMLayerEPT:
		return layers, nil
	default:
		return "", fmt.Errorf("kernel: unknown VM policy layers %q (have %q, %q, %q)", layers, VMLayerGPT, VMLayerEPT, VMLayerBoth)
	}
}

// ReplicateVMNode creates page-table replicas on node for a virtualized
// process, in the dimensions selected by layers (VMLayerGPT / VMLayerEPT /
// VMLayerBoth): guest-table replicas are built from guest frames backed on
// node (guest-visible NUMA), the nested table replicates with the ordinary
// Mitosis machinery. The copy stalls the process's first core — VM
// replication is applied eagerly at quiescent points. Reports whether any
// replica was actually created.
func (k *Kernel) ReplicateVMNode(p *Process, node numa.NodeID, layers string) (applied bool, err error) {
	if p.guest == nil {
		return false, fmt.Errorf("kernel: process %d is not virtualized", p.PID)
	}
	layers, err = normalizeVMLayers(layers)
	if err != nil {
		return false, err
	}
	// Even on a mid-copy failure (e.g. the ePT step hitting allocation
	// pressure after the gPT copy landed), a partially applied action must
	// reload the vCPU contexts and bill its cycles — the guest roots were
	// already repointed.
	defer func() {
		if applied {
			k.finishVMOp(p)
		}
	}()
	vm := p.vm.vm
	if layers != VMLayerEPT && node != p.guest.HomeNode() && !slices.Contains(p.guest.ReplicaNodes(), node) {
		if err := p.guest.ReplicateGuest([]numa.NodeID{node}); err != nil {
			return applied, err
		}
		applied = true
	}
	if layers != VMLayerGPT && !slices.Contains(vm.NestedReplicaNodes(), node) {
		mask := slices.Clone(vm.NestedSpace().Mask())
		mask = append(mask, node)
		if err := vm.ReplicateNested(mask); err != nil {
			return applied, err
		}
		applied = true
	}
	return applied, nil
}

// DropVMReplica tears down node's replicas in the selected dimensions.
// Reports whether anything was dropped.
func (k *Kernel) DropVMReplica(p *Process, node numa.NodeID, layers string) (applied bool, err error) {
	if p.guest == nil {
		return false, fmt.Errorf("kernel: process %d is not virtualized", p.PID)
	}
	layers, err = normalizeVMLayers(layers)
	if err != nil {
		return false, err
	}
	defer func() {
		if applied {
			k.finishVMOp(p)
		}
	}()
	vm := p.vm.vm
	if layers != VMLayerEPT && p.guest.DropGuestReplica(node) {
		applied = true
	}
	if layers != VMLayerGPT && vm.NestedSpace() != nil && slices.Contains(vm.NestedSpace().Mask(), node) {
		mask := slices.DeleteFunc(slices.Clone(vm.NestedSpace().Mask()), func(n numa.NodeID) bool { return n == node })
		if err := vm.ReplicateNested(mask); err != nil {
			return applied, err
		}
		applied = true
	}
	return applied, nil
}

// ReplicateVM applies a whole replication mode across the nodes the
// process runs on (plus the VM home): "gpt", "ept" or "both" — the static
// §7.4 configurations. Nodes not hosting a vCPU are left alone.
func (k *Kernel) ReplicateVM(p *Process, layers string) error {
	if p.guest == nil {
		return fmt.Errorf("kernel: process %d is not virtualized", p.PID)
	}
	layers, err := normalizeVMLayers(layers)
	if err != nil {
		return err
	}
	var nodes []numa.NodeID
	for _, c := range p.cores {
		n := k.topo.NodeOf(k.topo.SocketOf(c))
		if !slices.Contains(nodes, n) {
			nodes = append(nodes, n)
		}
	}
	slices.Sort(nodes)
	for _, n := range nodes {
		if _, err := k.ReplicateVMNode(p, n, layers); err != nil {
			return err
		}
	}
	return nil
}

// finishVMOp bills accumulated hypervisor/guest-kernel cycles to the
// process's first core and reloads the virtualized contexts so each vCPU
// picks up its socket-local guest and nested roots.
func (k *Kernel) finishVMOp(p *Process) {
	k.reloadContexts(p)
	cy := drainMeterCycles(p) + p.vm.vm.DrainCycles()
	if len(p.cores) > 0 {
		k.machine.AddCycles(k.callCore(p, 0, false), cy)
	}
}
