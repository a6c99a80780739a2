package experiments

import (
	"github.com/mitosis-project/mitosis-sim/internal/metrics"
	"github.com/mitosis-project/mitosis-sim/internal/workloads"
)

// RunFig10 regenerates Figure 10: the workload-migration scenario with the
// three configurations the paper evaluates — LP-LD (baseline: everything
// local), RPI-LD (page-tables stranded on a loaded remote socket), and
// RPI-LD+M (Mitosis migrates the page-tables back). thp selects 10a (4KB)
// vs 10b (2MB THP); as in the paper, bars are normalized to the 4KB LP-LD
// run.
func RunFig10(cfg Config, thp bool) (*metrics.Figure, error) {
	cfg = cfg.fill()
	title := "Figure 10a: workload migration scenario, 4KB pages"
	prefix := ""
	if thp {
		title = "Figure 10b: workload migration scenario, 2MB THP"
		prefix = "T"
	}
	fig := &metrics.Figure{
		Title: title,
		Note:  "normalized to the 4KB LP-LD run; improvement = RPI-LD / RPI-LD+M",
	}
	configs := []WMConfig{
		{Name: "LP-LD"},
		{Name: "RPI-LD", RemotePT: true, Interfere: true},
		{Name: "RPI-LD+M", RemotePT: true, Interfere: true, MitosisMigrate: true},
	}
	for _, proto := range workloads.MigrationSuite() {
		base, _, err := wmRun(cfg, proto.Name(), WMConfig{Name: "LP-LD"}, false, 0)
		if err != nil {
			return nil, err
		}
		group := metrics.Group{Name: proto.Name()}
		var rpi float64
		for _, c := range configs {
			res, _, err := wmRun(cfg, proto.Name(), c, thp, 0)
			if err != nil {
				return nil, err
			}
			norm := float64(res.Counters.Cycles) / float64(base.Counters.Cycles)
			bar := metrics.Bar{
				Config:     prefix + c.Name,
				Normalized: norm,
				WalkFrac:   res.Counters.WalkCycleFraction(),
			}
			if c.MitosisMigrate && rpi > 0 {
				bar.Improvement = rpi / norm
			} else if c.RemotePT {
				rpi = norm
			}
			group.Bars = append(group.Bars, bar)
		}
		fig.Group = append(fig.Group, group)
	}
	return fig, nil
}

// RunFig6 regenerates Figure 6: normalized runtime of all eight
// workload-migration workloads across the full seven-configuration
// placement matrix of Table 2, with 4KB pages.
func RunFig6(cfg Config) (*metrics.Figure, error) {
	cfg = cfg.fill()
	fig := &metrics.Figure{
		Title: "Figure 6: workload migration placement analysis, 4KB pages",
		Note:  "normalized to LP-LD; hashed fraction = page-walk cycles",
	}
	for _, proto := range workloads.MigrationSuite() {
		var baseCycles float64
		group := metrics.Group{Name: proto.Name()}
		for _, c := range WMConfigs() {
			res, _, err := wmRun(cfg, proto.Name(), c, false, 0)
			if err != nil {
				return nil, err
			}
			if c.Name == "LP-LD" {
				baseCycles = float64(res.Counters.Cycles)
			}
			group.Bars = append(group.Bars, metrics.Bar{
				Config:     c.Name,
				Normalized: float64(res.Counters.Cycles) / baseCycles,
				WalkFrac:   res.Counters.WalkCycleFraction(),
			})
		}
		fig.Group = append(fig.Group, group)
	}
	return fig, nil
}

// RunFig11 regenerates Figure 11: THP under heavy physical-memory
// fragmentation for GUPS, Redis and XSBench. Huge-page allocation mostly
// fails, the kernel falls back to 4KB pages, and the NUMA sensitivity of
// page walks returns — Mitosis recovers it.
func RunFig11(cfg Config) (*metrics.Figure, error) {
	cfg = cfg.fill()
	const fragmentation = 0.95
	fig := &metrics.Figure{
		Title: "Figure 11: 2MB THP under heavy memory fragmentation",
		Note:  "normalized to the fragmented TLP-LD run; improvement = TRPI-LD / TRPI-LD+M",
	}
	names := []string{"XSBench", "Redis", "GUPS"}
	configs := []WMConfig{
		{Name: "TLP-LD"},
		{Name: "TRPI-LD", RemotePT: true, Interfere: true},
		{Name: "TRPI-LD+M", RemotePT: true, Interfere: true, MitosisMigrate: true},
	}
	for _, name := range names {
		var baseCycles, rpi float64
		group := metrics.Group{Name: name}
		for _, c := range configs {
			res, _, err := wmRun(cfg, name, c, true, fragmentation)
			if err != nil {
				return nil, err
			}
			if baseCycles == 0 {
				baseCycles = float64(res.Counters.Cycles)
			}
			norm := float64(res.Counters.Cycles) / baseCycles
			bar := metrics.Bar{
				Config:     c.Name,
				Normalized: norm,
				WalkFrac:   res.Counters.WalkCycleFraction(),
			}
			if c.MitosisMigrate && rpi > 0 {
				bar.Improvement = rpi / norm
			} else if c.RemotePT {
				rpi = norm
			}
			group.Bars = append(group.Bars, bar)
		}
		fig.Group = append(fig.Group, group)
	}
	return fig, nil
}
