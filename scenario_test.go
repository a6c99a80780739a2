package mitosis

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/workloads"
)

// testBackend is the translation backend the suite runs under:
// MITOSIS_TEST_BACKEND, set by CI's backend matrix ("" = the default
// x8664). Tests that pin a specific backend override it explicitly.
func testBackend() string { return os.Getenv("MITOSIS_TEST_BACKEND") }

// testVirtBackend is testBackend for virtualized scenarios: LA57 guests
// are unsupported (guest tables are 4-level), so that rung of the matrix
// falls back to the default backend.
func testVirtBackend() string {
	if b := testBackend(); b != HardwareX8664LA57 {
		return b
	}
	return ""
}

// testScenario is a small two-process scenario exercising the spec
// surface: a stranded-table GUPS under the ondemand policy, then a
// replicated PageRank across all sockets.
func testScenario() Scenario {
	return NewScenario("test/two-proc",
		OnMachine(SystemConfig{Sockets: 4, CoresPerSocket: 2, MemoryPerNode: 256 << 20, Hardware: testBackend()}),
		WithSeed(7),
		WithProc(NewProc("gups",
			GUPS(InSuite("wm"), Scaled(1.0/32)),
			OnSockets(0),
			WithDataBind(0),
			WithPTNode(1),
			UnderPolicy("ondemand"),
			WithPhases(Warmup(500), Measure(2000)),
		)),
		WithProc(NewProc("pagerank",
			Analytics("PageRank", InSuite("wm"), Scaled(1.0/32)),
			WithReplication(ReplicationSpec{All: true}),
			WithPhases(Measure(2000)),
		)),
	)
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := testScenario()
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"version":1`) {
		t.Errorf("marshaled scenario missing version stamp: %s", data)
	}
	var back Scenario
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Errorf("round trip diverged:\nin:  %+v\nout: %+v", sc, back)
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Errorf("re-marshal not byte-identical:\n%s\n%s", data, again)
	}
}

func TestScenarioValidationErrors(t *testing.T) {
	base := func() Scenario { return testScenario() }
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"no processes", func(s *Scenario) { s.Processes = nil }, "has no processes"},
		{"empty proc name", func(s *Scenario) { s.Processes[0].Name = "" }, "has no name"},
		{"duplicate name", func(s *Scenario) { s.Processes[1].Name = "gups" }, "duplicate process name"},
		{"no workload", func(s *Scenario) { s.Processes[0].Workload = WorkloadSpec{} }, "workload has no name"},
		{"unknown workload", func(s *Scenario) { s.Processes[0].Workload.Name = "GUSP" }, `unknown workload "GUSP"`},
		{"family mismatch", func(s *Scenario) { s.Processes[0].Workload = KeyValue("GUPS") }, `belongs to family "gups"`},
		{"bad suite", func(s *Scenario) { s.Processes[0].Workload.Suite = "xx" }, "suite"},
		{"missing suite variant", func(s *Scenario) { s.Processes[0].Workload = NamedWorkload("Memcached", InSuite("wm")) }, "no \"wm\"-suite variant"},
		{"stream suite", func(s *Scenario) { s.Processes[0].Workload = Stream(InSuite("ms")) }, "no calibrated suite variants"},
		{"socket range", func(s *Scenario) { s.Processes[0].Placement.Sockets = []int{9} }, "socket 9 out of range"},
		{"socket dup", func(s *Scenario) { s.Processes[0].Placement.Sockets = []int{1, 1} }, "listed twice"},
		{"cores range", func(s *Scenario) { s.Processes[0].Placement.CoresPerSocket = 5 }, "cores_per_socket"},
		{"bad data policy", func(s *Scenario) { s.Processes[0].Placement.Data = "spread" }, `data policy "spread" invalid`},
		{"data node without bind", func(s *Scenario) {
			s.Processes[0].Placement.Data = ""
			s.Processes[0].Placement.DataNode = 2
		}, "data_node 2 set but"},
		{"bad pt policy", func(s *Scenario) { s.Processes[0].Placement.PageTables = "anywhere" }, "page_tables policy"},
		{"replication both", func(s *Scenario) {
			s.Processes[1].Replication = ReplicationSpec{All: true, Nodes: []int{1}}
		}, "both all and an explicit node list"},
		{"replication node range", func(s *Scenario) {
			s.Processes[1].Replication = ReplicationSpec{Nodes: []int{-1}}
		}, "replication node -1"},
		{"eager without target", func(s *Scenario) {
			s.Processes[1].Replication = ReplicationSpec{Eager: true}
		}, "eager set without any target"},
		{"unknown policy", func(s *Scenario) { s.Processes[0].Policy.Name = "magic" }, `unknown policy "magic"`},
		{"no phases", func(s *Scenario) { s.Processes[0].Phases = nil }, "no phases"},
		{"useless phase", func(s *Scenario) { s.Processes[0].Phases = []PhaseSpec{{Name: "idle"}} }, "does nothing"},
		{"migrate pt alone", func(s *Scenario) {
			s.Processes[0].Phases = []PhaseSpec{{Ops: 10, MigratePT: true}}
		}, "migrate_pt set without migrate_to"},
		{"migrate range", func(s *Scenario) {
			to := 7
			s.Processes[0].Phases = []PhaseSpec{{Ops: 10, MigrateTo: &to}}
		}, "migrate_to socket 7"},
		{"tiny memory", func(s *Scenario) { s.Machine.MemoryPerNode = 1 << 20 }, "below one 2MB block"},
		{"fragmentation", func(s *Scenario) { s.Fragmentation = 1.5 }, "fragmentation"},
		{"interference range", func(s *Scenario) { s.Interference = []int{8} }, "interference node 8"},
	}
	for _, tc := range cases {
		sc := base()
		tc.mut(&sc)
		err := sc.Validate()
		if err == nil {
			t.Errorf("%s: validated without error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		// Marshaling an invalid scenario must fail the same way.
		if _, merr := json.Marshal(sc); merr == nil {
			t.Errorf("%s: marshaled an invalid scenario", tc.name)
		}
	}
}

func TestScenarioUnmarshalStrict(t *testing.T) {
	sc := testScenario()
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}

	var back Scenario
	// Unknown fields are rejected.
	bad := strings.Replace(string(data), `"name":"test/two-proc"`, `"name":"test/two-proc","typo_field":1`, 1)
	if err := json.Unmarshal([]byte(bad), &back); err == nil || !strings.Contains(err.Error(), "typo_field") {
		t.Errorf("unknown field accepted or unhelpful error: %v", err)
	}
	// Version mismatches are rejected.
	bad = strings.Replace(string(data), `"version":1`, `"version":99`, 1)
	if err := json.Unmarshal([]byte(bad), &back); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Errorf("version mismatch accepted or unhelpful error: %v", err)
	}
	// Invalid specs are rejected on decode.
	bad = strings.Replace(string(data), `"GUPS"`, `"GUSP"`, 1)
	if err := json.Unmarshal([]byte(bad), &back); err == nil || !strings.Contains(err.Error(), "GUSP") {
		t.Errorf("invalid decoded spec accepted or unhelpful error: %v", err)
	}
}

// replayRun re-runs rr's recorded scenario after a JSON round trip, with
// the recorded chunk. By the determinism contract the result reproduces
// rr's counters.
func replayRun(t *testing.T, rr *RunResult) *RunResult {
	t.Helper()
	data, err := json.Marshal(rr.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	var replayed Scenario
	if err := json.Unmarshal(data, &replayed); err != nil {
		t.Fatal(err)
	}
	again, err := Run(replayed, WithChunk(rr.Chunk))
	if err != nil {
		t.Fatal(err)
	}
	return again
}

// TestRunDeterminismAcrossModes: the acceptance bar of the scenario API —
// a two-process scenario with an attached ondemand policy, replayed from
// its serialized JSON, reproduces every RunResult counter, the policy
// telemetry and the replica page count bit-identically.
func TestRunDeterminismAcrossModes(t *testing.T) {
	sc := testScenario()
	ref, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Policies) == 0 || len(ref.Policies[0].Actions) == 0 {
		t.Fatalf("ondemand policy never acted (actions %v)", ref.Policies)
	}
	if ref.Engine != "auto" {
		t.Errorf("RunResult.Engine = %q, want auto", ref.Engine)
	}
	rr := replayRun(t, ref)
	if !reflect.DeepEqual(ref.Phases, rr.Phases) {
		t.Errorf("JSON replay: phase counters diverged:\nref: %+v\ngot: %+v", ref.Phases, rr.Phases)
	}
	if !reflect.DeepEqual(ref.Policies, rr.Policies) {
		t.Errorf("JSON replay: policy telemetry diverged:\nref: %+v\ngot: %+v", ref.Policies, rr.Policies)
	}
	if ref.ReplicaPTPages != rr.ReplicaPTPages {
		t.Errorf("JSON replay: replica PT pages %d, want %d", rr.ReplicaPTPages, ref.ReplicaPTPages)
	}

	// A non-default chunk is part of the record: replaying with the
	// recorded chunk reproduces the counters; the default chunk would
	// shift the policy's tick rounds.
	chunked, err := Run(sc, WithChunk(512))
	if err != nil {
		t.Fatal(err)
	}
	if chunked.Chunk != 512 {
		t.Errorf("RunResult.Chunk = %d, want 512", chunked.Chunk)
	}
	if rechunked := replayRun(t, chunked); !reflect.DeepEqual(chunked.Phases, rechunked.Phases) {
		t.Error("replay with the recorded chunk diverged")
	}

	// Measured picks the non-warmup phase.
	m := ref.Measured("gups")
	if m == nil || m.Phase != "measure" || m.Warmup {
		t.Fatalf("Measured(gups) = %+v", m)
	}
	if m.Counters.Ops == 0 || m.Counters.Cycles == 0 {
		t.Errorf("measured counters empty: %+v", m.Counters)
	}
	if len(m.PerSocket) != 4 {
		t.Errorf("per-socket breakdown has %d sockets, want 4", len(m.PerSocket))
	}
}

// TestRunObserver: the observer sees every round barrier with consistent
// deltas, and observing does not change the counters. It also pins the
// observer's pacing (WithObserver): without a tiering policy a phase of r
// rounds yields r/Policy.TickEvery events, rounded down; with one it
// yields r.
func TestRunObserver(t *testing.T) {
	sc := testScenario()
	var ticks int
	var opsSeen uint64
	obs := ObserverFunc(func(ev TickEvent) {
		ticks++
		for _, st := range ev.Sockets {
			opsSeen += st.Ops
		}
	})
	withObs, err := Run(sc, WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	if ticks == 0 {
		t.Fatal("observer never ticked")
	}
	var totalOps uint64
	for _, ph := range withObs.Phases {
		totalOps += ph.Counters.Ops
	}
	if opsSeen != totalOps {
		t.Errorf("observer saw %d ops, results carry %d", opsSeen, totalOps)
	}
	plain, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Phases, withObs.Phases) {
		t.Error("observing changed the counters")
	}

	paced := testScenario()
	paced.Processes[0].Policy.TickEvery = 4 // ondemand policy, no tiering
	paced.Processes[1].Policy.TickEvery = 3 // no policy at all
	tiered := testTierScenario()
	tiered.Processes[0].Policy.TickEvery = 4 // tiering: every round
	tiered.Processes[1].Policy.TickEvery = 5 // no tiering
	for _, sc := range []Scenario{paced, tiered} {
		ticks := map[string]int{}
		obs := ObserverFunc(func(ev TickEvent) { ticks[ev.Process+"/"+ev.Phase]++ })
		if _, err := Run(sc, WithObserver(obs)); err != nil {
			t.Fatal(err)
		}
		for _, ps := range sc.Processes {
			for _, ph := range ps.Phases {
				want := workloads.Rounds(ph.Ops, 0)
				if !ps.Tiering.wants() {
					want /= ps.Policy.TickEvery
				}
				if got := ticks[ps.Name+"/"+ph.Name]; got != want {
					t.Errorf("%s: %s/%s: %d observer events, want %d", sc.Name, ps.Name, ph.Name, got, want)
				}
			}
		}
	}
}

// TestRunHugeChunk: a chunk longer than a phase runs the phase in one
// round, exactly like a chunk equal to it. The engine sizes its op buffers
// by the phase, not the chunk, and the cumulative round clock does not
// overflow even at math.MaxInt.
func TestRunHugeChunk(t *testing.T) {
	sc := NewScenario("test/huge-chunk",
		OnMachine(SystemConfig{Sockets: 2, CoresPerSocket: 1, MemoryPerNode: 64 << 20}),
		WithSeed(3),
		WithProc(NewProc("w", GUPS(Scaled(1.0/64)),
			OnSockets(0, 1),
			WithPhases(Warmup(64), Measure(64)))))
	run := func(chunk int) (*RunResult, []int) {
		var rounds []int
		obs := ObserverFunc(func(ev TickEvent) { rounds = append(rounds, ev.Round) })
		rr, err := Run(sc, WithChunk(chunk), WithObserver(obs))
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		return rr, rounds
	}
	want, wantRounds := run(64)
	if !slices.Equal(wantRounds, []int{1, 2}) {
		t.Fatalf("chunk 64: observer rounds %v, want [1 2]", wantRounds)
	}
	for _, chunk := range []int{1 << 40, math.MaxInt} {
		got, rounds := run(chunk)
		if !reflect.DeepEqual(want.Phases, got.Phases) {
			t.Errorf("chunk %d: phases diverged from chunk 64:\nwant: %+v\ngot:  %+v", chunk, want.Phases, got.Phases)
		}
		if !slices.Equal(rounds, wantRounds) {
			t.Errorf("chunk %d: observer rounds %v, want %v", chunk, rounds, wantRounds)
		}
	}
}

// TestSpawnExplicitSockets: a ProcSpec placement of []int{0} is
// explicitly socket 0, other sockets work too, and Spawn registers each
// process by name.
func TestSpawnExplicitSockets(t *testing.T) {
	sys := NewSystem(SystemConfig{Sockets: 4, CoresPerSocket: 2, MemoryPerNode: 128 << 20})
	p0, err := sys.Spawn(ProcSpec{Name: "on-zero", Placement: PlacementSpec{Sockets: []int{0}}})
	if err != nil {
		t.Fatal(err)
	}
	if cores := p0.Process().Cores(); len(cores) != 1 || sys.Kernel().Topology().SocketOf(cores[0]) != 0 {
		t.Errorf("explicit socket 0 landed on cores %v", cores)
	}
	p2, err := sys.Spawn(ProcSpec{Name: "on-two", Placement: PlacementSpec{Sockets: []int{2}, CoresPerSocket: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if cores := p2.Process().Cores(); len(cores) != 2 || sys.Kernel().Topology().SocketOf(cores[0]) != 2 {
		t.Errorf("socket 2 x2 cores landed on %v", cores)
	}
	if _, err := sys.Spawn(ProcSpec{Name: "bad", Placement: PlacementSpec{Sockets: []int{11}}}); err == nil {
		t.Error("out-of-range socket accepted")
	}
	if sys.Proc("on-zero") != p0 || sys.Proc("on-two") != p2 {
		t.Error("Spawn did not register the processes by name")
	}
}

// TestConfigNormalizeIdempotent: the machine config a system reports is
// already normalized (the machine-mismatch gate and replay records rely
// on normalize being a fixed point).
func TestConfigNormalizeIdempotent(t *testing.T) {
	for _, cfg := range []SystemConfig{
		{},
		{Sockets: 2},
		{MemoryPerNode: 1 << 20}, // sub-2MB clamps to the minimum block
		{Sockets: 8, CoresPerSocket: 4, MemoryPerNode: 3<<20 + 12345, THP: true},
	} {
		got := NewSystem(cfg).Config()
		if got != got.normalize() {
			t.Errorf("Config(%+v) = %+v not normalize-idempotent", cfg, got)
		}
	}
}

// TestSystemRunMachineMismatch: running a scenario on a system with a
// different machine is refused (it would not be reproducible).
func TestSystemRunMachineMismatch(t *testing.T) {
	sys := NewSystem(SystemConfig{Sockets: 2, CoresPerSocket: 1, MemoryPerNode: 128 << 20})
	sc := testScenario() // wants a 4-socket machine
	if _, err := sys.Run(sc); err == nil || !strings.Contains(err.Error(), "machine") {
		t.Errorf("mismatched machine accepted: %v", err)
	}
	// A zero Machine inherits the system's.
	sc.Machine = SystemConfig{}
	sc.Processes = sc.Processes[:1]
	sc.Processes[0].Placement.PTNode = 1
	rr, err := sys.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := rr.Scenario.Machine; got != sys.Config() {
		t.Errorf("inherited machine = %+v, want %+v", got, sys.Config())
	}
}

// TestQuiesce: draining all cores' buffered coherence is safe at any
// quiescent point and idempotent; facade methods that inspect or mutate
// replication state call it implicitly after hand-rolled batches.
func TestQuiesce(t *testing.T) {
	sys := NewSystem(SystemConfig{Sockets: 4, CoresPerSocket: 1, MemoryPerNode: 128 << 20})
	p, err := sys.Spawn(ProcSpec{Name: "app"})
	if err != nil {
		t.Fatal(err)
	}
	base, err := p.Mmap(8<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]AccessOp, 256)
	for w := 0; w < 4; w++ {
		for i := range ops {
			ops[i] = AccessOp{VA: base + uint64(w*4096+i*64)%(8<<20), Write: true}
		}
		if err := p.AccessBatch(w, ops); err != nil {
			t.Fatal(err)
		}
	}
	sys.Quiesce()
	sys.Quiesce() // idempotent
	before := p.Stats()
	sys.Quiesce()
	if after := p.Stats(); before != after {
		t.Errorf("Quiesce changed counters: %+v vs %+v", before, after)
	}
	if err := p.ReplicatePageTables(); err != nil { // quiesces implicitly
		t.Fatal(err)
	}
	if !p.Stats().Replicated {
		t.Error("not replicated")
	}
}

// testVirtScenario is the virtualized counterpart of testScenario: a
// guest GUPS whose VM (nested table, guest table, data) was initialized
// on node 2 while its vCPUs run on sockets 0 and 1, driven by the
// ondemand policy replicating gPT and ePT at round barriers.
func testVirtScenario() Scenario {
	return NewScenario("test/virt",
		OnMachine(SystemConfig{Sockets: 4, CoresPerSocket: 2, MemoryPerNode: 256 << 20, Hardware: testVirtBackend()}),
		WithSeed(7),
		WithProc(NewProc("gups-vm",
			GUPS(InSuite("wm"), Scaled(1.0/32)),
			OnSockets(0, 1),
			WithDataBind(2),
			WithVM(VMSpec{HomeNode: 2, PolicyLayers: VMReplicationBoth}),
			UnderPolicy("ondemand"),
			WithPhases(Warmup(500), Measure(2000)),
		)),
	)
}

func TestVirtScenarioJSONRoundTrip(t *testing.T) {
	sc := testVirtScenario()
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"vm":{"home_node":2`) {
		t.Errorf("marshaled scenario missing vm section: %s", data)
	}
	var back Scenario
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Errorf("round trip diverged:\nin:  %+v\nout: %+v", sc, back)
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Errorf("re-marshal not byte-identical:\n%s\n%s", data, again)
	}
}

func TestVirtScenarioValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"vm home range", func(s *Scenario) { s.Processes[0].VM.HomeNode = 9 }, "vm home_node 9"},
		{"vm bad replication", func(s *Scenario) { s.Processes[0].VM.Replication = "all" }, `vm replication "all"`},
		{"vm bad layers", func(s *Scenario) { s.Processes[0].VM.PolicyLayers = "none" }, `vm policy_layers "none"`},
		{"vm host replication", func(s *Scenario) {
			s.Processes[0].Replication = ReplicationSpec{All: true}
		}, "host replication spec set on a virtualized process"},
		{"vm move pt", func(s *Scenario) {
			node := 0
			s.Processes[0].Phases = []PhaseSpec{{Ops: 10, MovePT: &node}}
		}, "virtualized process recovers locality"},
	}
	for _, tc := range cases {
		sc := testVirtScenario()
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
}

// TestVirtRunDeterminismAcrossModes: the acceptance bar of the
// virtualized scenario path — a multi-socket guest process under the
// ondemand policy, replayed from its serialized spec, reproduces every
// counter and the policy telemetry bit-identically.
func TestVirtRunDeterminismAcrossModes(t *testing.T) {
	ref, err := Run(testVirtScenario())
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Policies) == 0 || len(ref.Policies[0].Actions) == 0 {
		t.Fatalf("ondemand policy never acted on the VM (policies %v)", ref.Policies)
	}

	m := ref.Measured("gups-vm")
	if m == nil {
		t.Fatal("no measured phase")
	}
	if m.Counters.GuestWalkCycles == 0 || m.Counters.NestedWalkCycles == 0 {
		t.Errorf("guest/nested walk split missing from counters: %+v", m.Counters)
	}
	if len(m.ReplicaNodes) < 2 {
		t.Errorf("replica nodes after policy run = %v, want vCPU nodes added", m.ReplicaNodes)
	}

	rr := replayRun(t, ref)
	if !reflect.DeepEqual(ref.Phases, rr.Phases) {
		t.Errorf("JSON replay of the virtualized scenario diverged:\nref: %+v\ngot: %+v", ref.Phases, rr.Phases)
	}
	if !reflect.DeepEqual(ref.Policies, rr.Policies) {
		t.Errorf("JSON replay: policy telemetry diverged:\nref: %+v\ngot: %+v", ref.Policies, rr.Policies)
	}
}

// TestVirtStaticReplicationRecovery: statically replicating both
// dimensions recovers over half of the worst case's remote-walk cycles —
// the §7.4 acceptance shape.
func TestVirtStaticReplicationRecovery(t *testing.T) {
	run := func(mode string) Counters {
		sc := NewScenario("test/virt-static/"+mode,
			OnMachine(SystemConfig{Sockets: 2, CoresPerSocket: 2, MemoryPerNode: 256 << 20}),
			WithSeed(7),
			WithProc(NewProc("gups-vm",
				GUPS(InSuite("wm"), Scaled(1.0/32)),
				OnSockets(0),
				WithDataBind(1),
				WithVM(VMSpec{HomeNode: 1, Replication: mode}),
				WithPhases(Warmup(500), Measure(2000)),
			)),
		)
		rr, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		return rr.Measured("gups-vm").Counters
	}
	worst := run(VMReplicationNone)
	both := run(VMReplicationBoth)
	if worst.RemoteWalkCycles == 0 {
		t.Fatal("worst-case virtualized run had no remote walk cycles")
	}
	if both.RemoteWalkCycles*2 >= worst.RemoteWalkCycles {
		t.Errorf("gPT+ePT replication recovered under half the remote-walk cycles: worst %d, both %d",
			worst.RemoteWalkCycles, both.RemoteWalkCycles)
	}
}

// stressScenario combines every dimension the host-speed fast paths touch
// into one declarative spec: a virtualized guest process (2D walks, vTLB
// composition) and a native THP process side by side, over pre-fragmented
// physical memory (allocator fallback churn), both under policies that act
// at round barriers.
func stressScenario() Scenario {
	return NewScenario("test/stress-equivalence",
		// THP stays off: at the test's scaled footprints 2MB coverage would
		// erase TLB pressure and the policies would never need to act. The
		// 0.95 fragmentation still drives the allocator's fragmented-group
		// preference paths on every 4KB allocation.
		OnMachine(SystemConfig{Sockets: 4, CoresPerSocket: 2, MemoryPerNode: 256 << 20}),
		WithSeed(11),
		WithFragmentation(0.95),
		WithProc(NewProc("gups-vm",
			GUPS(InSuite("wm"), Scaled(1.0/32)),
			OnSockets(0, 1),
			WithDataBind(2),
			WithVM(VMSpec{HomeNode: 2, PolicyLayers: VMReplicationBoth}),
			UnderPolicy("ondemand"),
			WithPhases(Warmup(500), Measure(2500)),
		)),
		WithProc(NewProc("hashjoin",
			NamedWorkload("HashJoin", InSuite("wm"), Scaled(1.0/32)),
			OnSockets(2, 3),
			WithDataBind(0),
			WithPTNode(0),
			UnderPolicy("ondemand"),
			WithPhases(Measure(2500)),
		)),
	)
}

// TestStressEquivalenceAcrossModes is the repeatability stress bar
// guarding the host-speed overhaul (lock-free single-writer LLC, TLB probe
// short-circuit, O(1) frame allocator, barrier-folded AutoNUMA sampling,
// cached TLB nodes): the full stress scenario — virtualized process,
// fragmentation, THP fallback, two policies acting at barriers — replayed
// from its serialized spec must reproduce every RunResult counter AND
// action log. CI runs it under -race, which additionally proves the
// lock-free paths respect the barrier discipline. The 1GB-mapping
// dimension (no public construction path) is covered by the kernel-level
// TestEngineEquivalence1GFragmented.
func TestStressEquivalenceAcrossModes(t *testing.T) {
	ref, err := Run(stressScenario())
	if err != nil {
		t.Fatal(err)
	}
	acted := 0
	for _, po := range ref.Policies {
		acted += len(po.Actions)
	}
	if acted == 0 {
		t.Fatal("no policy actions — the stress scenario must drive barrier-time kernel work")
	}
	// The guest dimension must really have run as a guest.
	if m := ref.Measured("gups-vm"); m == nil || m.Counters.NestedWalkCycles == 0 {
		t.Error("stress scenario did not exercise the 2D-walk path")
	}
	rr := replayRun(t, ref)
	if !reflect.DeepEqual(ref.Phases, rr.Phases) {
		t.Errorf("phase counters diverged:\nref: %+v\ngot: %+v", ref.Phases, rr.Phases)
	}
	if !reflect.DeepEqual(ref.Policies, rr.Policies) {
		t.Errorf("policy action logs diverged:\nref: %+v\ngot: %+v", ref.Policies, rr.Policies)
	}
	if ref.ReplicaPTPages != rr.ReplicaPTPages {
		t.Errorf("replica PT pages %d, want %d", rr.ReplicaPTPages, ref.ReplicaPTPages)
	}
}
