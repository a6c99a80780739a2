package hw

import (
	"errors"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// mapPages maps n writable 4KB pages starting at base on the given node.
func (fx *fixture) mapPages(t testing.TB, base pt.VirtAddr, n int, node numa.NodeID) {
	t.Helper()
	for i := 0; i < n; i++ {
		fx.mapPage(t, base+pt.VirtAddr(i)*0x1000, node)
	}
}

// batchOps builds a deterministic mixed read/write pattern over n pages.
func batchOps(base pt.VirtAddr, pages, count int) []AccessOp {
	ops := make([]AccessOp, count)
	rng := uint64(1)
	for i := range ops {
		rng = rng*6364136223846793005 + 1442695040888963407
		ops[i].VA = base + pt.VirtAddr(rng%uint64(pages))*0x1000
		ops[i].Write = rng&1 == 0
	}
	return ops
}

// TestAccessBatchMatchesAccess: a batch plus a coherence drain must charge
// exactly the counters a loop of single Access calls charges — the batch
// path only amortizes overhead, it does not change the model.
func TestAccessBatchMatchesAccess(t *testing.T) {
	const pages, count = 16, 500
	ops := batchOps(0x10000, pages, count)

	single := newFixture(t)
	single.mapPages(t, 0x10000, pages, 0)
	single.m.LoadContext(0, single.mp.Root(), 4)
	for _, op := range ops {
		if err := single.m.Access(0, op.VA, op.Write); err != nil {
			t.Fatal(err)
		}
	}

	batched := newFixture(t)
	batched.mapPages(t, 0x10000, pages, 0)
	batched.m.LoadContext(0, batched.mp.Root(), 4)
	if err := batched.m.AccessBatch(0, ops); err != nil {
		t.Fatal(err)
	}
	batched.m.DrainCoherence([]numa.CoreID{0})

	if s, b := single.m.Stats(0), batched.m.Stats(0); s != b {
		t.Errorf("stats diverged:\nsingle: %+v\nbatch:  %+v", s, b)
	}
	if s, b := single.m.TLBStats(0), batched.m.TLBStats(0); s != b {
		t.Errorf("TLB stats diverged:\nsingle: %+v\nbatch:  %+v", s, b)
	}
	for s := numa.SocketID(0); int(s) < single.topo.Sockets(); s++ {
		if ss, bs := single.m.LLCStats(s), batched.m.LLCStats(s); ss != bs {
			t.Errorf("socket %d LLC stats diverged:\nsingle: %+v\nbatch:  %+v", s, ss, bs)
		}
	}
}

func TestAccessBatchRequiresContext(t *testing.T) {
	fx := newFixture(t)
	err := fx.m.AccessBatch(0, []AccessOp{{VA: 0x1000}})
	if !errors.Is(err, ErrNoContext) {
		t.Fatalf("err = %v, want ErrNoContext", err)
	}
}

// TestAccessBatchPartialError: ops before the failing one stay charged,
// ops after it do not execute.
func TestAccessBatchPartialError(t *testing.T) {
	fx := newFixture(t)
	fx.mapPage(t, 0x1000, 0)
	fx.m.LoadContext(0, fx.mp.Root(), 4)
	ops := []AccessOp{
		{VA: 0x1000},
		{VA: 0x999000}, // unmapped, no fault handler: segfault
		{VA: 0x1000},
	}
	err := fx.m.AccessBatch(0, ops)
	if !errors.Is(err, ErrSegfault) {
		t.Fatalf("err = %v, want ErrSegfault", err)
	}
	// The first op and the faulting op were issued; the third was not.
	if got := fx.m.Stats(0).Ops; got != 2 {
		t.Errorf("Ops = %d, want 2 (third op after the fault must not run)", got)
	}
}

// TestDeferredCoherence: a store walk inside a batch must NOT invalidate
// other sockets' LLC lines until the coherence events are applied — that
// deferral is what makes concurrent batches deterministic.
func TestDeferredCoherence(t *testing.T) {
	fx := newFixture(t)
	va := pt.VirtAddr(0x1000)
	fx.mapPage(t, va, 0)
	core0, core1 := numa.CoreID(0), numa.CoreID(2) // sockets 0 and 1
	fx.m.LoadContext(core0, fx.mp.Root(), 4)
	fx.m.LoadContext(core1, fx.mp.Root(), 4)

	// Warm both sockets' LLCs with read walks.
	if err := fx.m.Access(core0, va, false); err != nil {
		t.Fatal(err)
	}
	if err := fx.m.Access(core1, va, false); err != nil {
		t.Fatal(err)
	}

	// A write walk in a batch buffers the exclusive-ownership event.
	fx.m.FlushAll(core0)
	if err := fx.m.AccessBatch(core0, []AccessOp{{VA: va, Write: true}}); err != nil {
		t.Fatal(err)
	}
	if got := fx.m.LLCStats(1).Invalidates; got != 0 {
		t.Errorf("socket 1 saw %d invalidates before the coherence apply", got)
	}
	fx.m.DrainCoherence([]numa.CoreID{core0})
	if got := fx.m.LLCStats(1).Invalidates; got == 0 {
		t.Error("coherence apply did not invalidate socket 1's line")
	}
}

// TestCoherenceAccumulatesAcrossBatches: events from consecutive batches
// must all survive until the apply step — a second batch must not drop the
// first batch's buffered invalidations.
func TestCoherenceAccumulatesAcrossBatches(t *testing.T) {
	fx := newFixture(t)
	va1, va2 := pt.VirtAddr(0x1000), pt.VirtAddr(0x400000) // distinct leaf tables
	fx.mapPage(t, va1, 0)
	fx.mapPage(t, va2, 0)
	core0, core1 := numa.CoreID(0), numa.CoreID(2) // sockets 0 and 1
	fx.m.LoadContext(core0, fx.mp.Root(), 4)
	fx.m.LoadContext(core1, fx.mp.Root(), 4)

	// Socket 1 caches both leaf lines via read walks.
	for _, va := range []pt.VirtAddr{va1, va2} {
		if err := fx.m.Access(core1, va, false); err != nil {
			t.Fatal(err)
		}
	}
	// Two separate batches on socket 0, one store walk each.
	fx.m.FlushAll(core0)
	if err := fx.m.AccessBatch(core0, []AccessOp{{VA: va1, Write: true}}); err != nil {
		t.Fatal(err)
	}
	if err := fx.m.AccessBatch(core0, []AccessOp{{VA: va2, Write: true}}); err != nil {
		t.Fatal(err)
	}
	fx.m.DrainCoherence([]numa.CoreID{core0})
	if got := fx.m.LLCStats(1).Invalidates; got != 2 {
		t.Errorf("socket 1 invalidates = %d after drain, want 2 (both batches' events)", got)
	}
}

// TestApplyCoherenceToSkipsOwnSocket: a socket's own store walks must not
// invalidate its own LLC, and ClearCoherence must drop the buffers.
func TestApplyCoherenceToSkipsOwnSocket(t *testing.T) {
	fx := newFixture(t)
	va := pt.VirtAddr(0x1000)
	fx.mapPage(t, va, 0)
	core0 := numa.CoreID(0)
	fx.m.LoadContext(core0, fx.mp.Root(), 4)
	if err := fx.m.AccessBatch(core0, []AccessOp{{VA: va, Write: true}}); err != nil {
		t.Fatal(err)
	}
	fx.m.ApplyCoherenceTo(0, []numa.CoreID{core0})
	if got := fx.m.LLCStats(0).Invalidates; got != 0 {
		t.Errorf("own-socket apply invalidated %d lines, want 0", got)
	}
	fx.m.ApplyCoherenceTo(1, []numa.CoreID{core0})
	fx.m.ClearCoherence([]numa.CoreID{core0})
	// After the clear, a drain applies nothing.
	before := fx.m.LLCStats(1).Invalidates
	fx.m.DrainCoherence([]numa.CoreID{core0})
	if got := fx.m.LLCStats(1).Invalidates; got != before {
		t.Error("DrainCoherence applied events after ClearCoherence")
	}
}

// TestCoherencePending: the engine skips a barrier's apply step when no
// core has a buffered event, so CoherencePending must see exactly the
// events a 4KB store walk buffers, keep seeing them across an apply, and
// stop once they are cleared.
func TestCoherencePending(t *testing.T) {
	fx := newFixture(t)
	va := pt.VirtAddr(0x1000)
	fx.mapPage(t, va, 0)
	core0, core1 := numa.CoreID(0), numa.CoreID(2) // sockets 0 and 1
	cores := []numa.CoreID{core0, core1}
	fx.m.LoadContext(core0, fx.mp.Root(), 4)
	fx.m.LoadContext(core1, fx.mp.Root(), 4)
	if fx.m.CoherencePending(cores) {
		t.Fatal("fresh machine reports pending coherence")
	}
	if err := fx.m.AccessBatch(core1, []AccessOp{{VA: va}}); err != nil {
		t.Fatal(err)
	}
	if fx.m.CoherencePending(cores) {
		t.Error("a read walk buffered a coherence event")
	}
	if err := fx.m.AccessBatch(core0, []AccessOp{{VA: va, Write: true}}); err != nil {
		t.Fatal(err)
	}
	if !fx.m.CoherencePending(cores) {
		t.Fatal("4KB store walk left no pending coherence")
	}
	if fx.m.CoherencePending([]numa.CoreID{core1}) {
		t.Error("pending reported for a core that buffered nothing")
	}
	fx.m.ApplyCoherenceTo(1, cores)
	if !fx.m.CoherencePending(cores) {
		t.Error("ApplyCoherenceTo dropped the buffer other targets still need")
	}
	fx.m.ClearCoherence(cores)
	if fx.m.CoherencePending(cores) {
		t.Error("pending coherence survived ClearCoherence")
	}
}
