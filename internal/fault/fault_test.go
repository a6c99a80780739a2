package fault

import (
	"reflect"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	in := "poison-pt:r8:p0:n1;poison-data:r8:p1:g5;offline:r12:n2;pressure:r4:n0:f4096"
	p, err := ParsePlan(in)
	if err != nil {
		t.Fatal(err)
	}
	want := &Plan{Events: []Event{
		{Round: 8, Kind: PoisonPT, Proc: 0, Node: 1},
		{Round: 8, Kind: PoisonData, Proc: 1, Page: 5},
		{Round: 12, Kind: OfflineNode, Node: 2},
		{Round: 4, Kind: Pressure, Node: 0, Frames: 4096},
	}}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("parse: got %+v want %+v", p, want)
	}
	back, err := ParsePlan(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, p) {
		t.Fatalf("round trip: got %+v want %+v", back, p)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"explode:r1",                             // unknown kind
		"poison-pt:p0:n1",                        // missing round
		"poison-pt:r8:x9",                        // unknown field prefix
		"poison-pt:r8:p",                         // empty field value
		"poison-pt:r8:pzero",                     // non-numeric
		"poison-data:r1:p9223372036854775808:g1", // proc overflows int
		"offline:r1:n9223372036854775808",        // node overflows int
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q): want error, got nil", bad)
		}
	}
	if p, err := ParsePlan("  "); err != nil || p != nil {
		t.Errorf("ParsePlan(blank): got %v, %v; want nil, nil", p, err)
	}
}

// FuzzParsePlan: whatever ParsePlan accepts renders (String) to DSL that
// parses back to the same text, and validating it never panics. The seeds
// are the committed fault-ladder plans, the ParsePlan doc examples and a
// plan whose proc and page overflow int.
func FuzzParsePlan(f *testing.F) {
	for _, s := range []string{
		"offline:r12:n1",
		"poison-pt:r24:p0:n0",
		"poison-pt:r8:p0:n1;poison-pt:r24:p0:n0",
		"pressure:r8:n0:f1000000",
		"poison-pt:r8:p0:n1",
		"poison-data:r8:p0:g5",
		"pressure:r4:n0:f4096",
		"poison-data:r1:p9223372036854775808:g18446744073709551615",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePlan(s)
		if err != nil {
			return
		}
		again, err := ParsePlan(p.String())
		if err != nil {
			t.Fatalf("ParsePlan(%q) = %q, which ParsePlan rejects: %v", s, p, err)
		}
		if again.String() != p.String() {
			t.Fatalf("ParsePlan(%q) = %q, re-parsed as %q", s, p, again)
		}
		_ = p.Validate(2, 4)
	})
}

func TestValidate(t *testing.T) {
	good := &Plan{Events: []Event{
		{Round: 1, Kind: PoisonData, Proc: 1, Page: 3},
		{Round: 2, Kind: PoisonPT, Proc: 0, Node: 1},
		{Round: 3, Kind: OfflineNode, Node: 1},
		{Round: 4, Kind: Pressure, Node: 0, Frames: 64},
	}}
	if err := good.Validate(2, 2); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		e    Event
	}{
		{"proc range", Event{Round: 1, Kind: PoisonData, Proc: 2}},
		{"pt node range", Event{Round: 1, Kind: PoisonPT, Proc: 0, Node: 9}},
		{"offline node range", Event{Round: 1, Kind: OfflineNode, Node: 2}},
		{"pressure zero frames", Event{Round: 1, Kind: Pressure, Node: 0}},
		{"unknown kind", Event{Round: 1, Kind: Kind(99)}},
	} {
		p := &Plan{Events: []Event{tc.e}}
		if err := p.Validate(2, 2); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(0, 0); err != nil {
		t.Errorf("nil plan: %v", err)
	}
}

func TestInjectorCursor(t *testing.T) {
	p := &Plan{Events: []Event{
		{Round: 12, Kind: OfflineNode, Node: 1},
		{Round: 4, Kind: Pressure, Node: 0, Frames: 10},
		{Round: 4, Kind: PoisonData, Proc: 0, Page: 1},
	}}
	inj := NewInjector(p)
	if got := inj.Due(3); len(got) != 0 {
		t.Fatalf("Due(3): got %v, want none", got)
	}
	// Both round-4 events fire together, in plan order.
	got := inj.Due(4)
	if len(got) != 2 || got[0].Kind != Pressure || got[1].Kind != PoisonData {
		t.Fatalf("Due(4): got %v", got)
	}
	// Catch-up: an event between barriers fires at the next one.
	got = inj.Due(20)
	if len(got) != 1 || got[0].Kind != OfflineNode {
		t.Fatalf("Due(20): got %v", got)
	}
	if inj.Pending() != 0 {
		t.Fatalf("pending: %d", inj.Pending())
	}
	// Fired events never re-fire.
	if got := inj.Due(100); len(got) != 0 {
		t.Fatalf("refire: %v", got)
	}
}
