package mitosis

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestHardwareSpecStringRoundTrip pins the canonical string form: every
// spec survives String -> ParseHardware unchanged, and the string is the
// normalized SystemConfig.Hardware value the sweep pool keys on.
func TestHardwareSpecStringRoundTrip(t *testing.T) {
	specs := []HardwareSpec{
		{},
		{Backend: HardwareX8664},
		{Backend: HardwareX8664LA57},
		{Backend: HardwareVictima},
		{Backend: HardwareX8664, NoPSC: true},
		{Backend: HardwareX8664LA57, L1TLB4K: 32, L1TLB4KWays: 8},
		{Backend: HardwareX8664, L2TLB: 128, L2TLBWays: 8, PSCL2: 4, PSCL3: 2, PSCL4: 1},
		{Backend: HardwareVictima, L1TLB4K: 8, L1TLB4KWays: 2, L1TLB2M: 4, L1TLB2MWays: 2},
	}
	for _, spec := range specs {
		s := spec.String()
		back, err := ParseHardware(s)
		if err != nil {
			t.Errorf("ParseHardware(%q): %v", s, err)
			continue
		}
		if back != spec {
			t.Errorf("round trip of %q: %+v != %+v", s, back, spec)
		}
		if again := back.String(); again != s {
			t.Errorf("re-render of %q produced %q", s, again)
		}
	}
	if (HardwareSpec{}).String() != "" {
		t.Error("zero spec must render as the empty string")
	}

	bad := []string{
		":", "x8664:", "x8664:psc", "x8664:psc=1/2", "x8664:l2=a/b",
		"x8664:nope=1", "x8664:l14k=1/2/3",
	}
	for _, s := range bad {
		if _, err := ParseHardware(s); err == nil {
			t.Errorf("ParseHardware(%q) accepted a malformed spec", s)
		}
	}
}

// TestHardwareValidation drives the spec-level invariants through
// Scenario.Validate, where geometry errors must surface.
func TestHardwareValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"unknown backend", func(s *Scenario) { s.Machine.Hardware = "pdp11" }, "unknown"},
		{"victima with L2", func(s *Scenario) { s.Machine.Hardware = "victima:l2=64/8" }, "l2"},
		{"malformed spec", func(s *Scenario) { s.Machine.Hardware = "x8664:l2=?" }, "/-separated"},
	}
	for _, c := range cases {
		sc := testScenario()
		c.mut(&sc)
		err := sc.Validate()
		if err == nil || !strings.Contains(strings.ToLower(err.Error()), c.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", c.name, err, c.want)
		}
	}

	// LA57 guests are unsupported: a virtualized scenario must reject the
	// 5-level backend but accept victima (a 4-level design).
	vm := testVirtScenario()
	vm.Machine.Hardware = HardwareX8664LA57
	if err := vm.Validate(); err == nil || !strings.Contains(err.Error(), "4-level") {
		t.Errorf("la57 + vm accepted: %v", err)
	}
	vm.Machine.Hardware = HardwareVictima
	if err := vm.Validate(); err != nil {
		t.Errorf("victima + vm rejected: %v", err)
	}
}

// TestDefaultHardwareIsX8664: an empty hardware string boots exactly the
// x8664 backend, so a scenario runs with the same counters, policy logs,
// replica pages and geometry echo under either spelling.
func TestDefaultHardwareIsX8664(t *testing.T) {
	var ref *RunResult
	for _, hw := range []string{"", HardwareX8664} {
		sc := testScenario()
		sc.Machine.Hardware = hw
		rr, err := Run(sc)
		if err != nil {
			t.Fatalf("hardware %q: %v", hw, err)
		}
		if ref == nil {
			ref = rr
			continue
		}
		if !reflect.DeepEqual(ref.Phases, rr.Phases) {
			t.Errorf("phase counters differ:\n\"\": %+v\nx8664: %+v", ref.Phases, rr.Phases)
		}
		if !reflect.DeepEqual(ref.Policies, rr.Policies) {
			t.Errorf("policy logs differ:\n\"\": %+v\nx8664: %+v", ref.Policies, rr.Policies)
		}
		if ref.ReplicaPTPages != rr.ReplicaPTPages {
			t.Errorf("replica PT pages %d vs %d", ref.ReplicaPTPages, rr.ReplicaPTPages)
		}
		if !reflect.DeepEqual(ref.Hardware, rr.Hardware) {
			t.Errorf("hardware echo differs: %+v vs %+v", ref.Hardware, rr.Hardware)
		}
	}
}

// TestHardwareEcho: every run's result carries the booted backend's
// geometry, and the echo survives a JSON round trip.
func TestHardwareEcho(t *testing.T) {
	sc := testScenario()
	sc.Machine.Hardware = HardwareVictima
	sc.Processes[0].Phases = []PhaseSpec{Measure(500)}
	sc.Processes = sc.Processes[:1]
	rr, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	g := rr.Hardware
	if g.Backend != HardwareVictima || g.Levels != 4 || g.VABits != 48 {
		t.Errorf("victima echo = %+v", g)
	}
	if g.L2TLB != 0 {
		t.Errorf("victima echo claims an L2 TLB: %+v", g)
	}
	data, err := json.Marshal(rr)
	if err != nil {
		t.Fatal(err)
	}
	var back RunResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Hardware, g) {
		t.Errorf("echo lost in JSON: %+v != %+v", back.Hardware, g)
	}
}

// TestRunDeterminismAcrossModesPerBackend extends the determinism
// contract to every translation backend: for each backend a JSON replay
// reproduces the phase counters, policy telemetry and replica page count.
func TestRunDeterminismAcrossModesPerBackend(t *testing.T) {
	for _, backend := range HardwareBackends() {
		t.Run(backend, func(t *testing.T) {
			sc := testScenario()
			sc.Machine.Hardware = backend
			ref, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Hardware.Backend != backend {
				t.Fatalf("booted %q, want %q", ref.Hardware.Backend, backend)
			}
			rr := replayRun(t, ref)
			if !reflect.DeepEqual(ref.Phases, rr.Phases) {
				t.Errorf("replay diverged:\nref: %+v\ngot: %+v", ref.Phases, rr.Phases)
			}
			if !reflect.DeepEqual(ref.Policies, rr.Policies) {
				t.Error("replay: policy telemetry diverged")
			}
			if ref.ReplicaPTPages != rr.ReplicaPTPages {
				t.Errorf("replay: replica PT pages %d, want %d", rr.ReplicaPTPages, ref.ReplicaPTPages)
			}
		})
	}
}

// TestBackendsMateriallyDiffer guards against the backends silently
// collapsing into one implementation: with the paging-structure caches
// off, the 5-level walk must cost more cycles than the 4-level one, and
// victima must report no L2 TLB while still translating.
func TestBackendsMateriallyDiffer(t *testing.T) {
	run := func(hw string) *RunResult {
		sc := testScenario()
		sc.Processes = sc.Processes[:1]
		sc.Machine.Hardware = hw
		rr, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", hw, err)
		}
		return rr
	}
	w4 := run("x8664:psc=0/0/0/0").Measured("gups").Counters
	w5 := run("x8664la57:psc=0/0/0/0").Measured("gups").Counters
	if w5.WalkCycles <= w4.WalkCycles {
		t.Errorf("5-level walk cycles %d not above 4-level %d with PSC off", w5.WalkCycles, w4.WalkCycles)
	}
	vic := run(HardwareVictima).Measured("gups").Counters
	if vic.Ops == 0 || vic.Walks == 0 {
		t.Errorf("victima did not translate: %+v", vic)
	}
}
