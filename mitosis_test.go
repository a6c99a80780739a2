package mitosis

import (
	"slices"
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	sys := NewSystem(SystemConfig{Sockets: 4, CoresPerSocket: 2, MemoryPerNode: 256 << 20})
	p, err := sys.Spawn(ProcSpec{Name: "app"})
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.Mmap(32<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ReplicatePageTables(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if !st.Replicated {
		t.Error("not replicated after ReplicatePageTables")
	}
	p.ResetStats()
	for i := uint64(0); i < 1000; i++ {
		if err := p.AccessOn(int(i%4), base+i*4096%(32<<20), i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	st = p.Stats()
	if st.Ops != 1000 {
		t.Errorf("ops = %d, want 1000", st.Ops)
	}
	// Replicated tables: every page walk stays socket-local.
	if st.RemoteWalkFraction != 0 {
		t.Errorf("remote walk fraction = %v, want 0 with replication", st.RemoteWalkFraction)
	}
	if !strings.Contains(sys.Report(p), "replication: true") {
		t.Error("report missing replication state")
	}
}

// TestAccessBatchFacade: the batch API must charge the same counters as
// the per-op API for the same op stream.
func TestAccessBatchFacade(t *testing.T) {
	mkProc := func() (*System, *Proc, uint64) {
		sys := NewSystem(SystemConfig{Sockets: 4, CoresPerSocket: 2, MemoryPerNode: 256 << 20})
		p, err := sys.Spawn(ProcSpec{Name: "batch"})
		if err != nil {
			t.Fatal(err)
		}
		base, err := p.Mmap(32<<20, true)
		if err != nil {
			t.Fatal(err)
		}
		return sys, p, base
	}

	_, single, base := mkProc()
	single.ResetStats()
	for i := uint64(0); i < 2000; i++ {
		if err := single.AccessOn(0, base+i*4096%(32<<20), i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}

	_, batched, base2 := mkProc()
	batched.ResetStats()
	ops := make([]AccessOp, 2000)
	for i := range ops {
		ops[i] = AccessOp{VA: base2 + uint64(i)*4096%(32<<20), Write: i%2 == 0}
	}
	if err := batched.AccessBatch(0, ops); err != nil {
		t.Fatal(err)
	}

	if s, b := single.Stats(), batched.Stats(); s != b {
		t.Errorf("batch stats diverged from per-op stats:\nsingle: %+v\nbatch:  %+v", s, b)
	}

	// Out-of-range worker must error.
	if err := batched.AccessBatch(99, ops[:1]); err == nil {
		t.Error("AccessBatch accepted an out-of-range worker")
	}
}

func TestMigrationFlow(t *testing.T) {
	sys := NewSystem(SystemConfig{Sockets: 2, CoresPerSocket: 2, MemoryPerNode: 512 << 20})
	p, err := sys.Spawn(ProcSpec{Name: "app", Placement: PlacementSpec{Sockets: []int{0}}})
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.Mmap(16<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Migrate(1, true); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	for i := uint64(0); i < 2000; i++ {
		if err := p.Access(base+(i*4096)%(16<<20), false); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.RemoteWalkFraction != 0 {
		t.Errorf("remote walks after PT migration = %v, want 0", st.RemoteWalkFraction)
	}
}

func TestCollapse(t *testing.T) {
	sys := NewSystem(SystemConfig{Sockets: 2, CoresPerSocket: 1, MemoryPerNode: 128 << 20})
	p, err := sys.Spawn(ProcSpec{Name: "app"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Mmap(8<<20, true); err != nil {
		t.Fatal(err)
	}
	if err := p.ReplicateOn(1); err != nil {
		t.Fatal(err)
	}
	if !p.Stats().Replicated {
		t.Fatal("not replicated")
	}
	if err := p.CollapseReplicas(); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Replicated {
		t.Error("still replicated after collapse")
	}
}

// TestPolicyScenarioFacade: a scenario process under UnderPolicy gets its
// telemetry-driven engine ticked at the round barriers. Workers walking a
// table pinned to node 0 from the other sockets make the ondemand policy
// act and add replicas; an unknown policy name fails validation.
func TestPolicyScenarioFacade(t *testing.T) {
	if got := Policies(); !slices.Equal(got, []string{"static", "ondemand", "costadaptive"}) {
		t.Fatalf("Policies() = %v", got)
	}
	sc := NewScenario("test/ondemand",
		OnMachine(SystemConfig{Sockets: 4, CoresPerSocket: 1, MemoryPerNode: 256 << 20, Hardware: testBackend()}),
		WithProc(NewProc("app",
			GUPS(InSuite("wm"), Scaled(1.0/32)),
			WithPTNode(0),
			UnderPolicy("ondemand"),
			WithPhases(Measure(2000)),
		)),
	)
	rr, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Policies) != 1 || len(rr.Policies[0].Actions) == 0 {
		t.Fatalf("policy never acted on remote-heavy workers: %+v", rr.Policies)
	}
	if rr.ReplicaPTPages == 0 {
		t.Error("no replicas after on-demand ticks")
	}
	sc.Processes[0].Policy.Name = "nope"
	if err := sc.Validate(); err == nil {
		t.Error("unknown policy accepted")
	}
}
