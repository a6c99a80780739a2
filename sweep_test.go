package mitosis

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// testSweep is a small grid covering every axis: 2 workloads x 2 policies
// x 2 socket counts x 2 fragmentations x 2 virt modes x 2 seed rungs =
// 64 cells on a small machine.
func testSweep() Sweep {
	return Sweep{
		Name:          "unit",
		Machine:       SystemConfig{Sockets: 2, CoresPerSocket: 2, MemoryPerNode: 64 << 20, THP: true},
		Workloads:     []string{"GUPS", "Redis"},
		Policies:      []string{"none", "ondemand"},
		SocketCounts:  []int{1, 2},
		Fragmentation: []float64{0, 0.95},
		Virt:          []bool{false, true},
		SeedRungs:     2,
		Scale:         1.0 / 64,
		WarmupOps:     100,
		MeasureOps:    400,
		StrandPT:      true,
	}
}

func TestSweepValidate(t *testing.T) {
	good := testSweep()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid sweep rejected: %v", err)
	}
	if n := good.Cells(); n != 64 {
		t.Fatalf("cell count = %d, want 64", n)
	}
	cases := []struct {
		mutate func(*Sweep)
		want   string
	}{
		{func(s *Sweep) { s.Workloads = nil }, "no workloads"},
		{func(s *Sweep) { s.Workloads = []string{"NoSuch"} }, "NoSuch"},
		{func(s *Sweep) { s.Policies = []string{"bogus"} }, "unknown policy"},
		{func(s *Sweep) { s.SocketCounts = []int{3} }, "socket count 3"},
		{func(s *Sweep) { s.Fragmentation = []float64{1.5} }, "fragmentation"},
		{func(s *Sweep) { s.BaseSeed = -1; s.SeedStride = 1; s.SeedRungs = 3 }, "seed 0"},
		{func(s *Sweep) { s.MeasureOps = -5 }, "measure_ops"},
		{func(s *Sweep) { s.Engine = "warp" }, "engine mode"},
		{func(s *Sweep) { s.Machine.Hardware = HardwareX8664LA57 }, "4-level"},
	}
	for _, c := range cases {
		sw := testSweep()
		c.mutate(&sw)
		err := sw.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("mutation expecting %q: got %v", c.want, err)
		}
	}
}

// TestSweepCellGenerator pins that every cell materializes to a valid,
// distinct scenario and that the index mapping round-trips.
func TestSweepCellGenerator(t *testing.T) {
	sw := testSweep()
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
	if _, err := sw.Cell(sw.Cells()); err == nil {
		t.Fatal("out-of-range cell accepted")
	}
}

// TestSweepDeterministicAcrossWorkers is the seed-ladder contract: the
// same spec produces byte-identical cell outcomes for any worker count,
// dispatch order, and pooling setting.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	sw := testSweep()
	ref, err := RunSweep(sw, WithSweepWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Errors != 0 {
		for _, c := range ref.Cells {
			if c.Error != "" {
				t.Fatalf("cell %d (%s): %s", c.Index, c.Name, c.Error)
			}
		}
	}
	refJSON, err := ref.OutcomesJSON()
	if err != nil {
		t.Fatal(err)
	}

	variants := []struct {
		label string
		opts  []SweepOpt
	}{
		{"workers=4", []SweepOpt{WithSweepWorkers(4)}},
		{"workers=4+shuffle", []SweepOpt{WithSweepWorkers(4), WithSweepShuffle(99)}},
		{"workers=3+nopool", []SweepOpt{WithSweepWorkers(3), WithSweepPooling(false)}},
		{"workers=1+again", []SweepOpt{WithSweepWorkers(1)}},
	}
	for _, v := range variants {
		got, err := RunSweep(sw, v.opts...)
		if err != nil {
			t.Fatalf("%s: %v", v.label, err)
		}
		gotJSON, err := got.OutcomesJSON()
		if err != nil {
			t.Fatalf("%s: %v", v.label, err)
		}
		if !bytes.Equal(refJSON, gotJSON) {
			t.Errorf("%s: outcomes diverge from workers=1 reference", v.label)
		}
	}
}

// TestSweepShuffledScheduleStress drives many workers over a shuffled
// dispatch order with a progress observer attached — the arrangement most
// likely to surface scheduling races (run under -race in CI).
func TestSweepShuffledScheduleStress(t *testing.T) {
	sw := testSweep()
	sw.WarmupOps = 0
	sw.MeasureOps = 200
	events := 0
	res, err := RunSweep(sw,
		WithSweepWorkers(8),
		WithSweepShuffle(1234),
		WithSweepProgress(func(ev SweepEvent) {
			events++
			if ev.Cell == nil || ev.Total != sw.Cells() {
				t.Errorf("bad event: %+v", ev)
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	if events != sw.Cells() {
		t.Errorf("observer saw %d events, want %d", events, sw.Cells())
	}
	if res.Errors != 0 {
		t.Errorf("%d cells failed", res.Errors)
	}
	for i, c := range res.Cells {
		if c.Index != i || c.Name == "" {
			t.Fatalf("cell slot %d holds index %d (%q)", i, c.Index, c.Name)
		}
	}
}

// TestSweepHardwareAxis pins the hardware axis's index-stability
// contract: omitting the axis (or spelling out the length-1 default)
// leaves every cell index and scenario unchanged, so committed
// BENCH_sweep.json cell indices stay valid; a multi-entry axis multiplies
// the grid and stamps each non-default cell's machine and name.
func TestSweepHardwareAxis(t *testing.T) {
	base := testSweep()
	base.Virt = []bool{false} // la57 cells are incompatible with the virt axis

	withDefault := base
	withDefault.Hardware = []string{""}
	if withDefault.Cells() != base.Cells() {
		t.Fatalf("default axis changed cell count: %d != %d", withDefault.Cells(), base.Cells())
	}
	for i := 0; i < base.Cells(); i++ {
		a, err := base.Cell(i)
		if err != nil {
			t.Fatal(err)
		}
		b, err := withDefault.Cell(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("cell %d changed under the explicit default axis:\n%+v\n%+v", i, a, b)
		}
	}

	sw := base
	sw.Hardware = []string{"", "x8664la57", "victima"}
	if err := sw.Validate(); err != nil {
		t.Fatal(err)
	}
	if sw.Cells() != base.Cells()*3 {
		t.Fatalf("cells = %d, want %d", sw.Cells(), base.Cells()*3)
	}
	perHW := map[string]int{}
	for i := 0; i < sw.Cells(); i++ {
		sc, err := sw.Cell(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("cell %d invalid: %v", i, err)
		}
		hw := sc.Machine.Hardware
		perHW[hw]++
		if hw == "" && strings.Contains(sc.Name, "/hw=") {
			t.Fatalf("default-hardware cell %d carries an hw suffix: %q", i, sc.Name)
		}
		if hw != "" && !strings.Contains(sc.Name, "/hw="+hw) {
			t.Fatalf("cell %d machine %q but name %q", i, hw, sc.Name)
		}
	}
	for _, hw := range sw.Hardware {
		if perHW[hw] != base.Cells() {
			t.Errorf("hardware %q got %d cells, want %d", hw, perHW[hw], base.Cells())
		}
	}

	bad := base
	bad.Hardware = []string{"pdp11"}
	if err := bad.Validate(); err == nil {
		t.Error("unknown backend in hardware axis accepted")
	}
	badVirt := testSweep() // virt axis includes true
	badVirt.Hardware = []string{"x8664la57"}
	if err := badVirt.Validate(); err == nil || !strings.Contains(err.Error(), "virt") {
		t.Errorf("la57 axis + virt axis accepted: %v", err)
	}
}

// TestSweepHardwareAxisDeterminism extends the seed-ladder contract to
// the hardware axis: the same spec with hardware cells produces
// byte-identical outcomes for any worker count and dispatch order — the
// pooled workers must rebuild their system when a cell's backend differs
// from the pooled machine's.
func TestSweepHardwareAxisDeterminism(t *testing.T) {
	sw := testSweep()
	sw.Workloads = []string{"GUPS"}
	sw.Policies = []string{"none", "ondemand"}
	sw.SocketCounts = []int{2}
	sw.Fragmentation = []float64{0}
	sw.Virt = []bool{false}
	sw.Hardware = []string{"", "x8664la57", "victima:l14k=8/2"}
	ref, err := RunSweep(sw, WithSweepWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Errors != 0 {
		for _, c := range ref.Cells {
			if c.Error != "" {
				t.Fatalf("cell %d (%s): %s", c.Index, c.Name, c.Error)
			}
		}
	}
	for _, c := range ref.Cells {
		sc, err := sw.Cell(c.Index)
		if err != nil {
			t.Fatal(err)
		}
		if c.Hardware != sc.Machine.Hardware && !(c.Hardware == "" && sc.Machine.Hardware == sw.Machine.Hardware) {
			t.Errorf("cell %d records hardware %q, scenario machine has %q", c.Index, c.Hardware, sc.Machine.Hardware)
		}
	}
	refJSON, err := ref.OutcomesJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct {
		label string
		opts  []SweepOpt
	}{
		{"workers=4", []SweepOpt{WithSweepWorkers(4)}},
		{"workers=3+shuffle", []SweepOpt{WithSweepWorkers(3), WithSweepShuffle(7)}},
	} {
		got, err := RunSweep(sw, v.opts...)
		if err != nil {
			t.Fatalf("%s: %v", v.label, err)
		}
		gotJSON, err := got.OutcomesJSON()
		if err != nil {
			t.Fatalf("%s: %v", v.label, err)
		}
		if !bytes.Equal(refJSON, gotJSON) {
			t.Errorf("%s: outcomes diverge from workers=1 reference", v.label)
		}
	}
}

// TestSweepLimit pins the quick-subset knob: limiting to n cells runs
// exactly the first n cells of the full grid, with identical outcomes.
func TestSweepLimit(t *testing.T) {
	sw := testSweep()
	sw.WarmupOps = 0
	sw.MeasureOps = 200
	full, err := RunSweep(sw, WithSweepWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	part, err := RunSweep(sw, WithSweepWorkers(2), WithSweepLimit(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Cells) != 10 {
		t.Fatalf("limited sweep ran %d cells, want 10", len(part.Cells))
	}
	for i := range part.Cells {
		a, b := full.Cells[i], part.Cells[i]
		if a.Name != b.Name || a.Outcome != b.Outcome {
			t.Errorf("cell %d diverges between full and limited runs", i)
		}
	}
}

// TestSweepInvalidMachine: an invalid machine — on the sweep itself or on
// a tiers/hardware axis value — fails Validate, and every entry point
// returns that error instead of panicking while booting a cell machine.
func TestSweepInvalidMachine(t *testing.T) {
	for _, mutate := range []func(*Sweep){
		func(s *Sweep) { s.Machine.Tiers = "bogus" },
		func(s *Sweep) { s.Machine.Hardware = "bogus" },
		func(s *Sweep) { s.Machine.Sockets = -1 },
		func(s *Sweep) { s.Tiers = []string{"", "cxl@0,bogus"} },
		func(s *Sweep) { s.Hardware = []string{"", "x8664:l2=48/8"} },
	} {
		sw := testSweep()
		mutate(&sw)
		what := fmt.Sprintf("machine %+v, tiers %q, hardware %q", sw.Machine, sw.Tiers, sw.Hardware)
		if err := sw.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", what)
			continue
		}
		if _, err := sw.Cell(0); err == nil {
			t.Errorf("%s: Cell accepted it", what)
		}
		if _, err := sw.ReplayCell(0); err == nil {
			t.Errorf("%s: ReplayCell accepted it", what)
		}
		if _, err := RunSweep(sw, WithSweepWorkers(1), WithSweepLimit(1)); err == nil {
			t.Errorf("%s: RunSweep accepted it", what)
		}
	}
}

// TestSweepFaultNodesPerTiers: a fault plan naming a tier node is valid
// exactly when every tiers-axis machine has that node, the same node
// count each cell's own Scenario.Validate checks against.
func TestSweepFaultNodesPerTiers(t *testing.T) {
	base := Sweep{
		Name:       "fault-tiers",
		Machine:    SystemConfig{Sockets: 2, CoresPerSocket: 2, MemoryPerNode: 64 << 20},
		Workloads:  []string{"GUPS"},
		Scale:      1.0 / 64,
		MeasureOps: 400,
	}
	cases := []struct {
		tiers  []string
		faults string
		ok     bool
	}{
		{[]string{"cxl@0"}, "offline:r4:n2", true},
		{[]string{"cxl@0", "nvm@1"}, "offline:r4:n2", true},
		{[]string{"", "cxl@0"}, "offline:r4:n2", false},
		{[]string{"cxl@0,nvm@1"}, "offline:r4:n3", true},
		{[]string{"cxl@0,nvm@1", "cxl@0"}, "offline:r4:n3", false},
	}
	for _, c := range cases {
		sw := base
		sw.Tiers, sw.Faults = c.tiers, []string{c.faults}
		err := sw.Validate()
		if (err == nil) != c.ok {
			t.Errorf("tiers %q faults %q: Validate() = %v, want ok=%v", c.tiers, c.faults, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		for i := 0; i < sw.Cells(); i++ {
			sc, err := sw.Cell(i)
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.Validate(); err != nil {
				t.Errorf("tiers %q faults %q: cell %d invalid: %v", c.tiers, c.faults, i, err)
			}
		}
	}
}
