package translate

import (
	"reflect"
	"strings"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/mem"
	"github.com/mitosis-project/mitosis-sim/internal/mmucache"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/tlb"
)

func testDeps() Deps {
	topo := numa.NewTopology(2, 1)
	return Deps{
		Topo: topo,
		Cost: numa.NewCostModel(topo, numa.DefaultCostParams()),
		Mem:  mem.New(mem.Config{Topology: topo, FramesPerNode: 512}),
	}
}

// TestZeroSpecIsX8664: the zero Spec builds exactly the named default
// backend, so callers never need a separate default path.
func TestZeroSpecIsX8664(t *testing.T) {
	deps := testDeps()
	zero, err := New(Spec{}, deps)
	if err != nil {
		t.Fatal(err)
	}
	named, err := New(Spec{Backend: BackendX8664}, deps)
	if err != nil {
		t.Fatal(err)
	}
	if zero.Name() != BackendX8664 || zero.Levels() != 4 {
		t.Errorf("zero spec booted %s with %d levels", zero.Name(), zero.Levels())
	}
	if g, want := zero.Geometry(), named.Geometry(); !reflect.DeepEqual(g, want) {
		t.Errorf("zero spec geometry %+v, want %+v", g, want)
	}
}

// TestSpecErrors drives each error resolve reports: New must refuse the
// same specs Validate does, before building anything.
func TestSpecErrors(t *testing.T) {
	withL2 := tlb.DefaultConfig()
	noL2 := tlb.DefaultConfig()
	noL2.L2Entries, noL2.L2Ways = 0, 0
	badWays := tlb.DefaultConfig()
	badWays.L1Entries4K, badWays.L1Ways4K = 12, 5
	badSets := tlb.DefaultConfig()
	badSets.L2Entries, badSets.L2Ways = 48, 8
	negPSC := mmucache.DefaultPSCConfig()
	negPSC.EntriesPerLevel[3] = -1
	wideWays := tlb.DefaultConfig()
	wideWays.L2Entries, wideWays.L2Ways = 512, 512
	hugeTLB := tlb.DefaultConfig()
	hugeTLB.L1Entries4K, hugeTLB.L1Ways4K = 1<<17, 4
	hugePSC := mmucache.DefaultPSCConfig()
	hugePSC.EntriesPerLevel[2] = 257
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown backend", Spec{Backend: "pdp11"}, "unknown backend"},
		{"victima with an L2", Spec{Backend: BackendVictima, TLB: withL2}, "no L2 TLB"},
		{"x8664 without an L2", Spec{Backend: BackendX8664, TLB: noL2}, "requires an L2 TLB"},
		{"bad ways multiple", Spec{TLB: badWays}, "multiple of ways"},
		{"non-power-of-two sets", Spec{TLB: badSets}, "power of two"},
		{"negative PSC row", Spec{PSC: &negPSC}, "negative entry count"},
		{"ways beyond a byte of LRU order", Spec{TLB: wideWays}, "exceed the limits"},
		{"entries beyond the cap", Spec{TLB: hugeTLB}, "exceed the limits"},
		{"PSC row beyond a byte of LRU order", Spec{PSC: &hugePSC}, "exceed the limit of 256"},
	}
	deps := testDeps()
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", c.name, err, c.want)
		}
		if b, err := New(c.spec, deps); err == nil || b != nil {
			t.Errorf("%s: New() = (%v, %v), want an error", c.name, b, err)
		}
	}
}
