package mitosis

import (
	"strings"
	"testing"
)

// TestSystemConfigValidate drives each error of the one machine check.
func TestSystemConfigValidate(t *testing.T) {
	for _, ok := range []SystemConfig{
		{},
		{Sockets: 2, CoresPerSocket: 1, MemoryPerNode: 2 << 20},
		{Tiers: "cxl@0, nvm@3", Hardware: "victima:l14k=32/4,psc=0/0/0/0"},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", ok, err)
		}
	}
	cases := []struct {
		name string
		cfg  SystemConfig
		want string
	}{
		{"negative sockets", SystemConfig{Sockets: -1}, "sockets/cores must be non-negative"},
		{"negative cores", SystemConfig{CoresPerSocket: -2}, "sockets/cores must be non-negative"},
		{"memory below a block", SystemConfig{MemoryPerNode: 1 << 20}, "below one 2MB block"},
		{"tier without @", SystemConfig{Tiers: "bogus"}, "want kind@socket"},
		{"empty tier entry", SystemConfig{Tiers: "cxl@0,"}, "want kind@socket"},
		{"unknown tier kind", SystemConfig{Tiers: "dram@0"}, `unknown kind "dram"`},
		{"non-numeric home", SystemConfig{Tiers: "cxl@one"}, `bad home socket "one"`},
		{"negative home", SystemConfig{Tiers: "nvm@-1"}, "negative home socket"},
		{"home out of range", SystemConfig{Sockets: 2, Tiers: "cxl@2"}, "home socket 2 out of range [0,2)"},
		{"malformed hardware", SystemConfig{Hardware: "x8664:l2=64"}, "/-separated"},
		{"empty backend name", SystemConfig{Hardware: ":l2=64/8"}, "empty backend name"},
		{"unknown backend", SystemConfig{Hardware: "pdp11"}, `unknown backend "pdp11"`},
		{"bad geometry", SystemConfig{Hardware: "x8664:l2=48/8"}, "power of two"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", c.name, err, c.want)
		}
	}
}

// FuzzSystemConfig feeds arbitrary tier and hardware strings to a small
// machine: a config that passes Validate must boot without panicking,
// normalize must be a fixpoint, and a parsed hardware string must survive
// a String round trip.
func FuzzSystemConfig(f *testing.F) {
	for _, seed := range [][2]string{
		{"", ""},
		{"cxl@0", "victima"},
		{"cxl@0,nvm@1", "x8664la57:psc=0/0/0/0"},
		{" cxl@1 , nvm@0", "x8664:l14k=32/4,l12m=8/4,l2=128/8,psc=16/8/4/2"},
		{"bogus", "pdp11"},
		{"cxl@2", "x8664:l2=48/8"},
		{"nvm@01", "victima:l2=64/8"},
		{"cxl@0,cxl@0,cxl@1", " x8664 : l14k = +16/4 "},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, tiers, hardware string) {
		cfg := SystemConfig{Sockets: 2, CoresPerSocket: 2, MemoryPerNode: 4 << 20, Tiers: tiers, Hardware: hardware}
		if n := cfg.normalize(); n.normalize() != n {
			t.Fatalf("normalize not a fixpoint: %+v -> %+v", n, n.normalize())
		}
		if h, err := ParseHardware(hardware); err == nil {
			back, err := ParseHardware(h.String())
			if err != nil || back != h {
				t.Fatalf("ParseHardware(%q) = %+v; String %q parses back as %+v, %v", hardware, h, h.String(), back, err)
			}
		}
		if cfg.Validate() != nil {
			return
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("valid config %+v panicked in NewSystem: %v", cfg, r)
			}
		}()
		NewSystem(cfg)
	})
}
