package mitosis

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// testTierScenario is the tier surface's unit scenario: a two-socket
// machine with a CXL expander, one GUPS with its page-table stranded on
// the expander and the hotcold-ptpin tier policy recovering it alongside
// the ondemand replication policy, plus an untreated control process.
func testTierScenario() Scenario {
	return NewScenario("test/tier",
		OnMachine(SystemConfig{Sockets: 2, CoresPerSocket: 2, MemoryPerNode: 256 << 20}),
		WithTiers(TierSpec{Kind: "cxl", Socket: 0}),
		WithSeed(7),
		WithProc(NewProc("gups",
			GUPS(InSuite("wm"), Scaled(1.0/32)),
			OnSockets(0),
			WithPTNode(2),
			WithTiering(TieringSpec{Policy: "hotcold-ptpin", TickEvery: 8, StepPages: 4096}),
			UnderPolicy("ondemand"),
			WithPhases(Warmup(500), Measure(2000)),
		)),
		WithProc(NewProc("control",
			GUPS(InSuite("wm"), Scaled(1.0/32)),
			OnSockets(1),
			WithPTNode(2),
			WithPhases(Measure(2000)),
		)),
	)
}

func TestTierScenarioJSONRoundTrip(t *testing.T) {
	sc := testTierScenario()
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"tiers":"cxl@0"`) {
		t.Errorf("marshaled scenario missing machine tiers: %s", data)
	}
	if !strings.Contains(string(data), `"tiering":{"policy":"hotcold-ptpin"`) {
		t.Errorf("marshaled scenario missing tiering section: %s", data)
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

func TestTierScenarioValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"malformed tiers", func(s *Scenario) { s.Machine.Tiers = "cxl" }, "want kind@socket"},
		{"unknown tier kind", func(s *Scenario) { s.Machine.Tiers = "hbm@0" }, `unknown kind "hbm"`},
		{"tier home range", func(s *Scenario) { s.Machine.Tiers = "cxl@5" }, "home socket 5 out of range"},
		{"unknown tier policy", func(s *Scenario) { s.Processes[0].Tiering.Policy = "magic" }, `unknown tier policy "magic"`},
		{"negative tiering knob", func(s *Scenario) { s.Processes[0].Tiering.StepPages = -1 }, "must be non-negative"},
		{"pt node past tiers", func(s *Scenario) { s.Processes[0].Placement.PTNode = 3 }, "out of range"},
		{"vm with tiering", func(s *Scenario) {
			s.Machine.Sockets = 4
			s.Processes[0].VM = &VMSpec{HomeNode: 0}
			s.Processes[0].Placement.PageTables = ""
			s.Processes[0].Placement.PTNode = 0
			s.Processes[0].Policy = PolicySpec{}
		}, "tiering policy set on a virtualized process"},
	}
	for _, tc := range cases {
		sc := testTierScenario()
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

// TestTierRunDeterminismAcrossModes: the acceptance bar of the tiering
// path — with the tier engine running concurrently with a replication
// policy, replaying the serialized spec reproduces the tier engine's
// telemetry, the policy telemetry and every counter bit-identically.
func TestTierRunDeterminismAcrossModes(t *testing.T) {
	ref, err := Run(testTierScenario())
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Tiering) != 1 || len(ref.Tiering[0].Actions) == 0 {
		t.Fatalf("tier policy never acted (tiering %+v)", ref.Tiering)
	}
	if ref.Tiering[0].PTMoves == 0 {
		t.Fatalf("stranded page-table was not moved: %+v", ref.Tiering[0])
	}

	// The treated process starts with walker reads on the CXL node and the
	// tier policy pins the table back to DRAM; the untreated control keeps
	// paying the slow tier for the whole measured phase.
	treated := ref.Measured("gups").Counters
	control := ref.Measured("control").Counters
	if control.TierWalkAccesses == 0 {
		t.Errorf("control process shows no tier walk accesses: %+v", control)
	}
	if treated.TierWalkFraction() >= control.TierWalkFraction() {
		t.Errorf("tier policy did not reduce tier-walk fraction: treated %.3f, control %.3f",
			treated.TierWalkFraction(), control.TierWalkFraction())
	}

	rr := replayRun(t, ref)
	if !reflect.DeepEqual(ref.Phases, rr.Phases) {
		t.Errorf("JSON replay: phase counters diverged:\nref: %+v\ngot: %+v", ref.Phases, rr.Phases)
	}
	if !reflect.DeepEqual(ref.Tiering, rr.Tiering) {
		t.Errorf("JSON replay: tiering telemetry diverged:\nref: %+v\ngot: %+v", ref.Tiering, rr.Tiering)
	}
	if !reflect.DeepEqual(ref.Policies, rr.Policies) {
		t.Errorf("JSON replay: policy telemetry diverged:\nref: %+v\ngot: %+v", ref.Policies, rr.Policies)
	}
}

// TestTierFlatMachineZero: tier counters and telemetry stay zero on flat
// all-DRAM machines, so pre-tier records and flat runs are unaffected by
// the tier dimension's existence. A tier policy on a flat machine is
// valid but finds nothing to move.
func TestTierFlatMachineZero(t *testing.T) {
	sc := testScenario()
	sc.Processes[0].Tiering = TieringSpec{Policy: "hotcold-ptpin"}
	rr, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range rr.Phases {
		c := ph.Counters
		if c.TierWalkAccesses != 0 || c.TierWalkCycles != 0 || c.TierDataAccesses != 0 {
			t.Errorf("flat machine has nonzero tier counters: %+v", c)
		}
		for _, s := range ph.PerSocket {
			if s.WalkTierAccesses != 0 || s.DataTierAccesses != 0 {
				t.Errorf("flat machine has nonzero per-socket tier counters: %+v", s)
			}
		}
	}
	if len(rr.Tiering) != 1 {
		t.Fatalf("tiering telemetry missing: %+v", rr.Tiering)
	}
	to := rr.Tiering[0]
	if to.PromotedPages != 0 || to.DemotedPages != 0 || to.PTMoves != 0 {
		t.Errorf("flat machine moved pages: %+v", to)
	}
}

// TestSweepTierAxes: the tier axes multiply the grid, reject invalid
// entries, and keep the seed-ladder contract — byte-identical outcomes
// across worker counts and dispatch orders.
func TestSweepTierAxes(t *testing.T) {
	sw := Sweep{
		Name:         "tier-unit",
		Machine:      SystemConfig{Sockets: 2, CoresPerSocket: 2, MemoryPerNode: 64 << 20},
		Workloads:    []string{"GUPS"},
		Policies:     []string{"none"},
		SocketCounts: []int{1},
		Tiers:        []string{"", "cxl@0"},
		TierPolicies: []string{"none", "hotcold-ptpin"},
		SeedRungs:    2,
		Scale:        1.0 / 64,
		WarmupOps:    100,
		MeasureOps:   400,
		StrandPT:     true,
	}
	if err := sw.Validate(); err != nil {
		t.Fatalf("valid tier sweep rejected: %v", err)
	}
	if n := sw.Cells(); n != 8 {
		t.Fatalf("cell count = %d, want 8", n)
	}
	cases := []struct {
		mutate func(*Sweep)
		want   string
	}{
		{func(s *Sweep) { s.Tiers = []string{"cxl"} }, "want kind@socket"},
		{func(s *Sweep) { s.Tiers = []string{"cxl@7"} }, "out of range"},
		{func(s *Sweep) { s.TierPolicies = []string{"bogus"} }, "unknown tier policy"},
		{func(s *Sweep) { s.Virt = []bool{false, true} }, "virt cells cannot run tier policies"},
	}
	for _, c := range cases {
		bad := sw
		c.mutate(&bad)
		err := bad.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("mutation expecting %q: got %v", c.want, err)
		}
	}

	seen := map[string]bool{}
	for i := 0; i < sw.Cells(); i++ {
		sc, err := sw.Cell(i)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("cell %d invalid: %v", i, err)
		}
		if seen[sc.Name] {
			t.Fatalf("cell %d: duplicate name %q", i, sc.Name)
		}
		seen[sc.Name] = true
	}

	ref, err := RunSweep(sw, WithSweepWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ref.Cells {
		if c.Error != "" {
			t.Fatalf("cell %d (%s): %s", c.Index, c.Name, c.Error)
		}
		if c.Tiers == "cxl@0" && c.TierPolicy == "hotcold-ptpin" && c.Outcome.TierActions == 0 {
			t.Errorf("cell %s: tier policy on tiered machine applied no actions", c.Name)
		}
		if c.TierPolicy == "" && c.Outcome.TierActions != 0 {
			t.Errorf("cell %s: tier actions without a tier policy", c.Name)
		}
	}
	refJSON, err := ref.OutcomesJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range [][]SweepOpt{
		{WithSweepWorkers(4)},
		{WithSweepWorkers(3), WithSweepShuffle(99)},
	} {
		got, err := RunSweep(sw, opts...)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := got.OutcomesJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refJSON, gotJSON) {
			t.Error("tier sweep outcomes diverge across worker counts")
		}
	}
}
