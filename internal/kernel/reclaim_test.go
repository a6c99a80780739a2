package kernel

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

func TestReclaimReplicasFreesMemory(t *testing.T) {
	k := newTestKernel(t)
	k.Sysctl().Mode = core.ModePerProcess
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Mmap(p, 8<<20, MmapOpts{Writable: true, Populate: true}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetReplicationMask([]numa.NodeID{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	replicaPT := k.pm.AllocatedPT(1) + k.pm.AllocatedPT(2) + k.pm.AllocatedPT(3)
	if replicaPT == 0 {
		t.Fatal("no replica pages created")
	}
	freed := k.ReclaimReplicas()
	if freed == 0 {
		t.Fatal("reclaim freed nothing")
	}
	if p.Space().Replicated() {
		t.Error("process still replicated after reclaim")
	}
	for _, n := range []numa.NodeID{1, 2, 3} {
		if got := k.pm.AllocatedPT(n); got != 0 {
			t.Errorf("node %d keeps %d PT pages after reclaim", n, got)
		}
	}
	// The process still runs correctly on the single table.
	if err := k.machine.Access(p.Cores()[0], p.VMAs()[0].Start, true); err != nil {
		t.Fatal(err)
	}
}

func TestOOMFaultTriggersReclaim(t *testing.T) {
	k := New(Config{Topology: numa.NewTopology(2, 1), FramesPerNode: 2048})
	k.Sysctl().Mode = core.ModePerProcess
	victim := newProc(t, k, ProcessOpts{Name: "victim", Home: 0})
	if err := k.RunOn(victim, []numa.CoreID{0}); err != nil {
		t.Fatal(err)
	}
	// The victim maps a small region replicated on both nodes.
	if _, err := k.Mmap(victim, 1<<20, MmapOpts{Writable: true, Populate: true}); err != nil {
		t.Fatal(err)
	}
	if err := victim.SetReplicationMask([]numa.NodeID{0, 1}); err != nil {
		t.Fatal(err)
	}

	// A hungry process consumes everything that's left. Faults beyond the
	// free-frame budget (data plus fresh page-table pages) succeed only
	// because the kernel reclaims the victim's replicas.
	hungry := newProc(t, k, ProcessOpts{Name: "hungry", Home: 1})
	if err := k.RunOn(hungry, []numa.CoreID{1}); err != nil {
		t.Fatal(err)
	}
	free := k.pm.FreeFrames(0) + k.pm.FreeFrames(1)
	size := (free + 64) * 4096 // deliberately more than exists
	base, err := k.Mmap(hungry, size, MmapOpts{Writable: true})
	if err != nil {
		t.Fatal(err)
	}
	faulted := uint64(0)
	for off := uint64(0); off < size; off += 4096 {
		if err := k.machine.Access(1, base+pt.VirtAddr(off), true); err != nil {
			break // genuine OOM once nothing is left to reclaim
		}
		faulted++
	}
	if victim.Space().Replicated() {
		t.Error("victim keeps replicas despite memory pressure")
	}
	// Progress must have continued past the point where page-table pages
	// exhausted the free budget — only reclaim makes that possible.
	ptOverhead := free/512 + 8
	if faulted+ptOverhead <= free {
		t.Errorf("faulted only %d of %d free frames; reclaim never helped", faulted, free)
	}
	// And memory really is exhausted now.
	if got := k.pm.FreeFrames(0) + k.pm.FreeFrames(1); got != 0 {
		t.Errorf("%d frames still free after OOM loop", got)
	}
}

// TestReclaimSkipsMidIncrementalReplication: a process with an unfinished
// incremental replication is a busy replica holder — collapsing its rings
// would free pages the copy job still references.
func TestReclaimSkipsMidIncrementalReplication(t *testing.T) {
	k := newTestKernel(t)
	k.Sysctl().Mode = core.ModePerProcess
	k.Sysctl().PageCacheTarget = 64
	k.ApplySysctl()
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Mmap(p, 8<<20, MmapOpts{Writable: true, Populate: true}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetReplicationMask([]numa.NodeID{1}); err != nil {
		t.Fatal(err)
	}
	ir, bgCtx, err := k.StartBackgroundReplication(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ir.Step(bgCtx, 2); err != nil { // partial copy in flight
		t.Fatal(err)
	}
	if !k.replicaHolderBusy(p, nil) {
		t.Fatal("process not busy while mid-incremental-replication")
	}
	k.ReclaimReplicas()
	if !p.Space().Replicated() {
		t.Fatal("reclaim collapsed replicas under an in-flight incremental copy")
	}
	// Finishing unpins the process; reclaim may now take everything.
	for {
		done, err := ir.Step(bgCtx, 64)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	k.FinishBackgroundReplication(p, ir)
	if k.replicaHolderBusy(p, nil) {
		t.Fatal("process still busy after finish")
	}
	k.ReclaimReplicas()
	if p.Space().Replicated() {
		t.Errorf("replicas survived reclaim after finish: %v", p.Space().Mask())
	}
}

// TestAbortBackgroundReplicationUnpins: aborting a copy tears down the
// partial replica and releases the reclaim pin.
func TestAbortBackgroundReplicationUnpins(t *testing.T) {
	k := newTestKernel(t)
	k.Sysctl().Mode = core.ModePerProcess
	k.Sysctl().PageCacheTarget = 64
	k.ApplySysctl()
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Mmap(p, 8<<20, MmapOpts{Writable: true, Populate: true}); err != nil {
		t.Fatal(err)
	}
	baseline := k.pm.AllocatedPT(3)
	ir, bgCtx, err := k.StartBackgroundReplication(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ir.Step(bgCtx, 2); err != nil {
		t.Fatal(err)
	}
	if !k.replicaHolderBusy(p, nil) {
		t.Fatal("not pinned while copy in flight")
	}
	k.AbortBackgroundReplication(p, ir, bgCtx)
	if k.replicaHolderBusy(p, nil) {
		t.Error("still pinned after abort")
	}
	if got := k.pm.AllocatedPT(3); got != baseline {
		t.Errorf("partial replica leaked: node 3 has %d PT pages, want %d", got, baseline)
	}
	if slices.Contains(p.Space().Mask(), 3) {
		t.Errorf("aborted node joined the mask: %v", p.Space().Mask())
	}
}

// TestReclaimConsultsPolicy: with a policy engine attached, memory
// pressure tears down only the replicas the policy volunteers.
func TestReclaimConsultsPolicy(t *testing.T) {
	k := newTestKernel(t)
	k.Sysctl().Mode = core.ModePerProcess
	k.Sysctl().PageCacheTarget = 64
	k.ApplySysctl()
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOnSocket(p, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Mmap(p, 8<<20, MmapOpts{Writable: true, Populate: true}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetReplicationMask([]numa.NodeID{1, 2}); err != nil {
		t.Fatal(err)
	}
	// Prime the policy: socket 1 walking hard (hot replica), socket 2 idle
	// (cold for one tick) — exactly what a tick after the last run would
	// have recorded.
	pol := core.NewOnDemand(core.DefaultOnDemandConfig())
	tl := &core.Telemetry{
		PrimaryNode: 0, Mask: []numa.NodeID{1, 2},
		Sockets: make([]core.SocketSample, 4),
	}
	for i := range tl.Sockets {
		tl.Sockets[i].Socket = numa.SocketID(i)
		tl.Sockets[i].Node = numa.NodeID(i)
	}
	tl.Sockets[1].Walks = 1000
	pol.Decide(tl)
	k.AttachPolicy(p, pol, PolicyEngineConfig{})

	k.ReclaimReplicas()
	if got := p.Space().Mask(); !slices.Equal(got, []numa.NodeID{1}) {
		t.Errorf("mask after policy-mediated reclaim = %v, want [1] (hot kept, cold taken)", got)
	}
}

func TestBackgroundReplicationKernelFlow(t *testing.T) {
	k := newTestKernel(t)
	k.Sysctl().Mode = core.ModePerProcess
	p := newProc(t, k, ProcessOpts{Home: 0})
	if err := k.RunOnAllSockets(p); err != nil {
		t.Fatal(err)
	}
	base, err := k.Mmap(p, 8<<20, MmapOpts{Writable: true, Populate: true})
	if err != nil {
		t.Fatal(err)
	}
	ir, bgCtx, err := k.StartBackgroundReplication(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	appCore := p.Cores()[0]
	appBefore := k.machine.Stats(appCore).Cycles
	for {
		done, err := ir.Step(bgCtx, 4)
		if err != nil {
			t.Fatal(err)
		}
		// The app keeps making progress while the copy runs.
		if err := k.machine.Access(appCore, base, false); err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	// Background work cost cycles — on the background meter, not the app.
	if bgCtx.Meter.Cycles == 0 {
		t.Error("background meter empty")
	}
	appCost := k.machine.Stats(appCore).Cycles - appBefore
	if appCost > numa.Cycles(uint64(bgCtx.Meter.Cycles)) && bgCtx.Meter.Cycles > 0 {
		// The app paid only for its own accesses; sanity bound only.
		t.Logf("app %d vs bg %d cycles", appCost, bgCtx.Meter.Cycles)
	}
	k.FinishBackgroundReplication(p, ir)
	// Socket 2's core now runs on its local replica root.
	c2 := k.topo.FirstCoreOf(2)
	if got := k.pm.NodeOf(k.machine.ContextRoot(c2)); got != 2 {
		t.Errorf("socket 2 CR3 on node %d after finish, want 2", got)
	}
	if err := k.machine.Access(c2, base, true); err != nil {
		t.Fatal(err)
	}
}

// TestReclaimFaultCoreIsPerProcess: the faulting-core exemption reclaim
// grants a caller must cover exactly the caller's own fault. Before the
// fault path was sharded per process the kernel kept one machine-wide
// "currently faulting core" slot, so one process's in-flight fault could
// exempt a busy core while reclaim ran on behalf of a *different* process
// — collapsing replicas under a walker. faultCore is now per-process
// state guarded by that process's fault lock; this pins the semantics.
func TestReclaimFaultCoreIsPerProcess(t *testing.T) {
	k := newTestKernel(t)
	k.Sysctl().Mode = core.ModePerProcess
	a := newProc(t, k, ProcessOpts{Name: "a", Home: 0})
	b := newProc(t, k, ProcessOpts{Name: "b", Home: 1})
	for i, pr := range []*Process{a, b} {
		if err := k.RunOnSocket(pr, numa.SocketID(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Mmap(pr, 4<<20, MmapOpts{Writable: true, Populate: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.SetReplicationMask([]numa.NodeID{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.SetReplicationMask([]numa.NodeID{1, 2}); err != nil {
		t.Fatal(err)
	}

	// One core of each process is mid-batch, as during concurrent faults.
	coreA, coreB := a.Cores()[0], b.Cores()[0]
	release := parkCores(t, k, coreA, coreB)

	// a is mid-fault on coreA: the handler records the core under a's
	// fault lock before reaching the allocator, exactly as HandleFault
	// does on the path that leads into reclaim.
	a.faultLock.Lock()
	a.faultCore = coreA
	if k.replicaHolderBusy(a, a) {
		t.Error("caller's own faulting core not exempt from the busy check")
	}
	if !k.replicaHolderBusy(b, a) {
		t.Error("another process's busy core must pin its replicas — the exemption leaked across processes")
	}
	if k.reclaimReplicas(a) == 0 {
		t.Error("self-reclaim freed nothing despite the caller's collapsible replicas")
	}
	if a.Space().Replicated() {
		t.Error("caller's replicas survived reclaim from its own fault path")
	}
	if !b.Space().Replicated() {
		t.Error("reclaim collapsed replicas under a process with a busy core")
	}
	a.faultCore = -1
	a.faultLock.Unlock()
	release[coreA]()
	release[coreB]()

	// With all cores quiescent, a victim whose fault lock is contended
	// (its fault path is between the busy-check window and completion) is
	// skipped rather than blocked on — and is reclaimed normally once the
	// lock frees.
	b.faultLock.Lock()
	k.ReclaimReplicas()
	if !b.Space().Replicated() {
		t.Error("reclaim collapsed a victim whose fault lock was held")
	}
	b.faultLock.Unlock()
	k.ReclaimReplicas()
	if b.Space().Replicated() {
		t.Error("replicas survived reclaim at quiescence")
	}
}

// parkedFaults is a fault handler that holds each fault until its core is
// released, then fails it: the core stays mid-batch (CoreBusy) for as long
// as the test needs, and no kernel state changes.
type parkedFaults struct {
	entered chan numa.CoreID
	release map[numa.CoreID]chan struct{}
}

func (h *parkedFaults) HandleFault(c numa.CoreID, _ pt.VirtAddr, _ bool) (numa.Cycles, error) {
	h.entered <- c
	<-h.release[c]
	return 0, errors.New("parked fault released")
}

// parkCores starts one access on each core to an address no VMA maps and
// parks its fault, returning once every core is busy. release[c] lets
// core c's access fail and waits for it to return. Cleanup releases any
// core still parked and restores the kernel's fault handler.
func parkCores(t *testing.T, k *Kernel, cores ...numa.CoreID) map[numa.CoreID]func() {
	t.Helper()
	h := &parkedFaults{entered: make(chan numa.CoreID), release: map[numa.CoreID]chan struct{}{}}
	for _, c := range cores {
		h.release[c] = make(chan struct{})
	}
	k.machine.SetFaultHandler(h)
	release := map[numa.CoreID]func(){}
	for _, c := range cores {
		done := make(chan error)
		go func() { done <- k.machine.Access(c, 0x7f0000000000, false) }()
		release[c] = sync.OnceFunc(func() {
			close(h.release[c])
			if err := <-done; err == nil {
				t.Errorf("parked access on core %d succeeded, want its fault to fail", c)
			}
		})
	}
	for range cores {
		<-h.entered
	}
	t.Cleanup(func() {
		for _, r := range release {
			r()
		}
		k.machine.SetFaultHandler(k)
	})
	return release
}
