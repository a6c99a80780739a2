package mitosis

import (
	"reflect"
	"testing"
)

// resetScenarios are the reuse-coverage matrix: plain, stranded-table
// with a runtime policy, heavy fragmentation (0.95) with THP, and a
// virtualized process — each exercising different machine state (frag
// masks, policy engines, replica rings, nested tables).
func resetScenarios() []Scenario {
	small := SystemConfig{Sockets: 2, CoresPerSocket: 2, MemoryPerNode: 64 << 20}
	return []Scenario{
		NewScenario("plain",
			OnMachine(small), WithSeed(7),
			WithProc(NewProc("w", GUPS(Scaled(1.0/64)),
				OnSockets(0),
				WithPhases(Warmup(300), Measure(900))))),
		NewScenario("stranded-policy",
			OnMachine(small), WithSeed(11),
			WithProc(NewProc("w", NamedWorkload("XSBench", Scaled(1.0/64)),
				OnSockets(0, 1),
				WithPTNode(1),
				UnderPolicy("ondemand"),
				WithPhases(Measure(1200))))),
		NewScenario("fragmented-thp",
			OnMachine(SystemConfig{Sockets: 2, CoresPerSocket: 2, MemoryPerNode: 64 << 20, THP: true}),
			WithSeed(13), WithFragmentation(0.95),
			WithInterference(1),
			WithProc(NewProc("w", NamedWorkload("Redis", Scaled(1.0/64)),
				OnSockets(0),
				WithPhases(Measure(900))))),
		NewScenario("virt",
			OnMachine(small), WithSeed(17),
			WithProc(NewProc("w", NamedWorkload("BTree", Scaled(1.0/64)),
				OnSockets(0),
				WithVM(VMSpec{HomeNode: 1, Replication: VMReplicationBoth}),
				WithPhases(Measure(900))))),
	}
}

// mustRun runs sc on sys and fails the test on error.
func mustRun(t *testing.T, sys *System, sc Scenario) *RunResult {
	t.Helper()
	rr, err := sys.Run(sc)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	return rr
}

// sameResult compares the deterministic parts of two run results.
func sameResult(t *testing.T, label string, fresh, reused *RunResult) {
	t.Helper()
	if !reflect.DeepEqual(fresh.Phases, reused.Phases) {
		t.Errorf("%s: phase counters diverge\nfresh:  %+v\nreused: %+v", label, fresh.Phases, reused.Phases)
	}
	if !reflect.DeepEqual(fresh.Policies, reused.Policies) {
		t.Errorf("%s: policy outcomes diverge\nfresh:  %+v\nreused: %+v", label, fresh.Policies, reused.Policies)
	}
	if fresh.ReplicaPTPages != reused.ReplicaPTPages {
		t.Errorf("%s: replica pages diverge: fresh %d, reused %d", label, fresh.ReplicaPTPages, reused.ReplicaPTPages)
	}
}

// TestResetBitIdentical pins the machine-recycling contract: running a
// scenario on a Reset system reproduces a fresh system's counters
// bit-for-bit, including heavy fragmentation and virtualization. It also cross-pollutes: the reset system ran a
// *different* scenario first, so any state leaking through Reset shifts
// placement and breaks the comparison.
func TestResetBitIdentical(t *testing.T) {
	scs := resetScenarios()
	for i, sc := range scs {
		fresh := mustRun(t, NewSystem(sc.Machine), sc)

		// Reused path: run the next scenario (different machine state),
		// then Reset only if machines match — otherwise dirty the system
		// with a rerun of the same scenario.
		sys := NewSystem(sc.Machine)
		dirty := scs[(i+1)%len(scs)]
		if dirty.Machine.normalize() == sc.Machine.normalize() {
			mustRun(t, sys, dirty)
		} else {
			mustRun(t, sys, sc)
		}
		sys.Reset()
		reused := mustRun(t, sys, sc)
		sameResult(t, sc.Name, fresh, reused)

		// And again: Reset must be stable over repeated cycles.
		sys.Reset()
		again := mustRun(t, sys, sc)
		sameResult(t, sc.Name+"/cycle2", fresh, again)
	}
}

// TestPooledRunMatchesFresh pins the AcquireSystem/Release pool: a system
// that went through the pool after running arbitrary work produces the
// same counters as NewSystem.
func TestPooledRunMatchesFresh(t *testing.T) {
	sc := resetScenarios()[1]
	fresh := mustRun(t, NewSystem(sc.Machine), sc)

	sys := AcquireSystem(sc.Machine)
	mustRun(t, sys, sc)
	sys.Release()

	pooled := AcquireSystem(sc.Machine)
	reused := mustRun(t, pooled, sc)
	pooled.Release()
	sameResult(t, "pooled", fresh, reused)
}
