package mitosis

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// faultMachine is the 4-socket platform the fault tests run on.
func faultMachine() SystemConfig {
	return SystemConfig{Sockets: 4, CoresPerSocket: 2, MemoryPerNode: 256 << 20, Hardware: testBackend()}
}

// faultScenario is a single GUPS process on socket 0 with the given fault
// plan; replicated pins page-table replicas on nodes 0..2 eagerly (so
// they exist before any event fires).
func faultScenario(name, plan string, replicated bool) Scenario {
	opts := []ProcOpt{
		OnSockets(0),
		WithPhases(Warmup(500), Measure(2000)),
	}
	if replicated {
		opts = append(opts, WithReplication(ReplicationSpec{Nodes: []int{0, 1, 2}, Eager: true}))
	}
	return NewScenario(name,
		OnMachine(faultMachine()),
		WithSeed(7),
		WithFaults(plan),
		WithProc(NewProc("gups", GUPS(InSuite("wm"), Scaled(1.0/32)), opts...)),
	)
}

func TestFaultScenarioJSONRoundTrip(t *testing.T) {
	sc := faultScenario("test/fault-json", "poison-pt:r8:p0:n1;offline:r20:n2", true)
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"faults":"poison-pt:r8:p0:n1;offline:r20:n2"`) {
		t.Errorf("marshaled scenario missing fault plan: %s", data)
	}
	var back Scenario
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Errorf("round trip diverged:\nin:  %+v\nout: %+v", sc, back)
	}
	// A plan-free scenario's wire form is unchanged: no faults key.
	plain := testScenario()
	data, err = json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "faults") {
		t.Errorf("plan-free scenario leaks a faults key: %s", data)
	}
}

func TestFaultValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"bad kind", func(s *Scenario) { s.Faults = "melt:r1:n0" }, `unknown kind "melt"`},
		{"bad field", func(s *Scenario) { s.Faults = "offline:r1:n0:zzz" }, "zzz"},
		{"proc range", func(s *Scenario) { s.Faults = "poison-pt:r8:p9:n1" }, "proc 9"},
		{"node range", func(s *Scenario) { s.Faults = "offline:r8:n9" }, "node 9"},
	}
	for _, tc := range cases {
		sc := faultScenario("test/fault-bad", "", true)
		tc.mut(&sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: validated without error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Fault injection is native-only.
	sc := faultScenario("test/fault-virt", "offline:r8:n1", false)
	sc.Processes[0].VM = &VMSpec{}
	if err := sc.Validate(); err == nil || !strings.Contains(err.Error(), "native-only") {
		t.Errorf("virt+faults accepted or unhelpful error: %v", err)
	}
}

// TestFaultPTReplicaFailover: the headline recovery path. Poisoning a
// replica root and then the primary root of a replicated process rebuilds
// the tree from the survivors both times — zero kills, bounded recovery
// cycles, and no walk ever touches a poisoned frame (the machine-check
// guard would abort the run if one did).
func TestFaultPTReplicaFailover(t *testing.T) {
	sc := faultScenario("test/fault-failover", "poison-pt:r8:p0:n1;poison-pt:r24:p0:n0", true)
	sys := NewSystem(sc.Machine)
	rr, err := sys.Run(sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	fo := rr.Faults
	if fo == nil {
		t.Fatal("RunResult.Faults missing")
	}
	if fo.Injected != 2 || fo.Pending != 0 {
		t.Fatalf("injected %d pending %d, want 2/0 (actions %v)", fo.Injected, fo.Pending, fo.Actions)
	}
	if fo.MCEs != 2 || fo.PTRebuilds != 2 {
		t.Errorf("MCEs %d rebuilds %d, want 2/2 (actions %v)", fo.MCEs, fo.PTRebuilds, fo.Actions)
	}
	if fo.SigbusKills != 0 || fo.OOMKills != 0 || len(fo.Killed) != 0 {
		t.Errorf("replicated failover killed: %+v", fo)
	}
	if fo.RecoveryCycles == 0 {
		t.Error("recovery charged zero cycles")
	}
	for _, ph := range rr.Phases {
		if ph.Killed {
			t.Errorf("phase %s/%s marked killed", ph.Process, ph.Phase)
		}
	}
	if len(fo.Health) != 1 || fo.Health[0].State != "replicated" {
		t.Errorf("health = %+v, want gups replicated", fo.Health)
	}
	// Poisoned roots were retired, never refreed: the poison ledger is
	// empty (retirement clears it) and the retired count matches.
	pm := sys.k.Mem()
	if pm.PoisonCount() != 0 {
		t.Errorf("live poisoned frames after recovery: %d", pm.PoisonCount())
	}
	if got := pm.Retired(numa.NodeID(0)) + pm.Retired(numa.NodeID(1)); got != uint64(fo.RetiredFrames) {
		t.Errorf("retired frames %d, want %d", got, fo.RetiredFrames)
	}
}

// TestFaultUnreplicatedSigbus: the same poison on a process with no
// replicas has nothing to rebuild from — the process dies with SIGBUS,
// its partial counters recorded.
func TestFaultUnreplicatedSigbus(t *testing.T) {
	sc := faultScenario("test/fault-sigbus", "poison-pt:r24:p0:n0", false)
	rr, err := Run(sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	fo := rr.Faults
	if fo == nil || fo.SigbusKills != 1 {
		t.Fatalf("Faults = %+v, want one SIGBUS kill", fo)
	}
	if len(fo.Killed) != 1 || fo.Killed[0].Process != "gups" || fo.Killed[0].Reason != "sigbus" {
		t.Errorf("killed = %+v", fo.Killed)
	}
	if len(fo.Health) != 1 || fo.Health[0].State != "killed:sigbus" {
		t.Errorf("health = %+v", fo.Health)
	}
	killed := 0
	for _, ph := range rr.Phases {
		if ph.Killed {
			killed++
			if ph.Counters.Ops == 0 {
				t.Errorf("killed phase %s/%s recorded no partial ops", ph.Process, ph.Phase)
			}
		}
	}
	if killed != 1 {
		t.Errorf("%d killed phases, want 1", killed)
	}
}

// TestFaultNodeOffline: hot-removing a node drains its replicas, evacuates
// its data pages, and leaves it holding nothing.
func TestFaultNodeOffline(t *testing.T) {
	sc := faultScenario("test/fault-offline", "offline:r12:n1", true)
	sys := NewSystem(sc.Machine)
	rr, err := sys.Run(sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	fo := rr.Faults
	if fo == nil || fo.NodesOfflined != 1 {
		t.Fatalf("Faults = %+v, want one offlined node", fo)
	}
	if len(fo.Killed) != 0 {
		t.Errorf("offline killed procs: %+v", fo.Killed)
	}
	pm := sys.k.Mem()
	if !pm.NodeOffline(numa.NodeID(1)) {
		t.Error("node 1 not marked offline")
	}
	// The invariant: an offlined node holds zero mapped frames.
	if pt, data := pm.AllocatedPT(numa.NodeID(1)), pm.AllocatedData(numa.NodeID(1)); pt != 0 || data != 0 {
		t.Errorf("offline node still holds %d PT + %d data frames (actions %v)", pt, data, fo.Actions)
	}
	// The replica on node 1 is gone, so the process reports degraded.
	if len(fo.Health) != 1 || fo.Health[0].State != "degraded" {
		t.Errorf("health = %+v, want degraded", fo.Health)
	}
}

// TestFaultPressureLadder: a pressure wave walks the graceful-degradation
// ladder — reclaim cold replicas first, and if the floor still is not met,
// OOM-kill the largest-footprint process on the node.
func TestFaultPressureLadder(t *testing.T) {
	m := faultMachine()
	big := NewProc("big",
		GUPS(InSuite("wm"), Scaled(1.0/16)),
		OnSockets(0),
		WithPhases(Measure(2000)),
	)
	small := NewProc("small",
		GUPS(InSuite("wm"), Scaled(1.0/64)),
		OnSockets(1),
		WithPhases(Measure(2000)),
	)
	// A floor above the node's whole frame count cannot be met by
	// reclaim alone, so the ladder reaches the OOM rung.
	sc := NewScenario("test/fault-pressure",
		OnMachine(m),
		WithSeed(7),
		WithFaults("pressure:r8:n0:f1000000"),
		WithProc(big),
		WithProc(small),
	)
	rr, err := Run(sc)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	fo := rr.Faults
	if fo == nil || fo.OOMKills != 1 {
		t.Fatalf("Faults = %+v, want one OOM kill", fo)
	}
	if len(fo.Killed) != 1 || fo.Killed[0].Process != "big" || fo.Killed[0].Reason != "oom" {
		t.Errorf("killed = %+v, want big/oom", fo.Killed)
	}
	// The bystander on node 1 survives with full counters.
	ms := rr.Measured("small")
	if ms == nil || ms.Killed || ms.Counters.Ops != 2000 {
		t.Errorf("bystander result: %+v", ms)
	}
}

// TestFaultDeterminismAcrossModes: the acceptance bar — one plan mixing
// every fault kind, replayed from the recorded scenario JSON, reproduces
// the counters and the fault outcome bit-identically.
func TestFaultDeterminismAcrossModes(t *testing.T) {
	sc := faultScenario("test/fault-modes",
		"poison-data:r4:p0:g3;poison-pt:r8:p0:n1;pressure:r10:n2:f16;offline:r16:n2", true)
	ref, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Faults == nil || ref.Faults.Injected != 4 {
		t.Fatalf("faults = %+v", ref.Faults)
	}
	rr := replayRun(t, ref)
	if !reflect.DeepEqual(ref.Phases, rr.Phases) {
		t.Errorf("JSON replay: phase counters diverged:\nref: %+v\ngot: %+v", ref.Phases, rr.Phases)
	}
	if !reflect.DeepEqual(ref.Faults, rr.Faults) {
		t.Errorf("JSON replay: fault outcome diverged:\nref: %+v\ngot: %+v", ref.Faults, rr.Faults)
	}
}

// TestChurnPressureStorm: the churn Pressure knob sizes node 0 to exhaust
// mid-storm, so socket 0's demand faults reclaim frames from node 1 —
// fattening the latency tail — while outcomes stay bit-identical across
// worker counts and both fault-lock modes.
func TestChurnPressureStorm(t *testing.T) {
	base := Churn{
		Name:         "test-pressure",
		Machine:      SystemConfig{Sockets: 4, CoresPerSocket: 2, MemoryPerNode: 64 << 20},
		Procs:        12,
		PagesPerProc: 256,
	}
	calm, err := RunChurn(base)
	if err != nil {
		t.Fatal(err)
	}
	stormSpec := base
	stormSpec.Pressure = 0.5
	storm, err := RunChurn(stormSpec)
	if err != nil {
		t.Fatal(err)
	}
	if storm.Faults != calm.Faults || storm.Ops != calm.Ops {
		t.Fatalf("pressure changed the workload: %d/%d faults, %d/%d ops",
			storm.Faults, calm.Faults, storm.Ops, calm.Ops)
	}
	// Spilled faults pay direct reclaim plus remote zero-fill: the
	// storm's fault bill and its latency tail strictly dominate the calm
	// run's.
	if storm.FaultCycles <= calm.FaultCycles {
		t.Errorf("fault cycles %d not above unpressured %d; node 0 never exhausted", storm.FaultCycles, calm.FaultCycles)
	}
	if storm.P99 <= calm.P99 || storm.P99 <= storm.P50 {
		t.Errorf("p99 %d (calm %d, p50 %d): pressure did not fatten the tail", storm.P99, calm.P99, storm.P50)
	}
	// Bit-identity across lock modes and worker counts, with the reclaim
	// path live mid-storm.
	for _, mut := range []func(*Churn){
		func(c *Churn) { c.Workers = 1 },
		func(c *Churn) { c.Workers = 2 },
		func(c *Churn) { c.GlobalLock = true },
		func(c *Churn) { c.GlobalLock = true; c.Workers = 1 },
	} {
		alt := stormSpec
		mut(&alt)
		got, err := RunChurn(alt)
		if err != nil {
			t.Fatal(err)
		}
		if !got.DeterministicEquals(storm) {
			t.Errorf("workers=%d globalLock=%v diverged under pressure:\nref: faults=%d cycles=%d hist=%v\ngot: faults=%d cycles=%d hist=%v",
				alt.Workers, alt.GlobalLock, storm.Faults, storm.Cycles, storm.FaultHist,
				got.Faults, got.Cycles, got.FaultHist)
		}
	}
	// Validation: pressure needs a spill target.
	bad := stormSpec
	bad.Sockets = 1
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "spill target") {
		t.Errorf("single-socket pressure accepted or unhelpful error: %v", err)
	}
	bad = stormSpec
	bad.Pressure = 1.5
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "pressure") {
		t.Errorf("pressure 1.5 accepted or unhelpful error: %v", err)
	}
}

// TestFaultSweepAxis: the Faults axis multiplies the grid, preserves cell
// indices for plan-free specs, and sweeps are bit-identical across worker
// counts.
func TestFaultSweepAxis(t *testing.T) {
	base := Sweep{
		Name:       "fault-sweep",
		Machine:    faultMachine(),
		Workloads:  []string{"GUPS"},
		Policies:   []string{"none", "ondemand"},
		MeasureOps: 512,
	}
	withAxis := base
	withAxis.Faults = []string{"", "poison-pt:r4:p0:n1"}
	if got, want := withAxis.Cells(), 2*base.Cells(); got != want {
		t.Fatalf("cells with axis = %d, want %d", got, want)
	}
	// Cells below the old grid size decode identically to the axis-free
	// spec: recorded sweeps replay unchanged.
	for i := 0; i < base.Cells(); i++ {
		old, err := base.Cell(i)
		if err != nil {
			t.Fatal(err)
		}
		neu, err := withAxis.Cell(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(old, neu) {
			t.Fatalf("cell %d changed under the default fault rung:\nold: %+v\nnew: %+v", i, old, neu)
		}
	}
	var ref []byte
	for _, workers := range []int{1, 2, 4, 8} {
		res, err := RunSweep(withAxis, WithSweepWorkers(workers), WithSweepShuffle(int64(workers)))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Errors != 0 {
			for _, c := range res.Cells {
				if c.Error != "" {
					t.Fatalf("workers=%d: cell %d (%s): %s", workers, c.Index, c.Name, c.Error)
				}
			}
		}
		out, err := res.OutcomesJSON()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = out
			// The fault cells actually injected.
			hit := 0
			for _, c := range res.Cells {
				if c.Faults != "" && c.Outcome.FaultsInjected > 0 {
					hit++
				}
			}
			if hit == 0 {
				t.Error("no sweep cell recorded an injected fault")
			}
			continue
		}
		if string(ref) != string(out) {
			t.Errorf("workers=%d: outcomes diverged from single-worker run", workers)
		}
	}
}
