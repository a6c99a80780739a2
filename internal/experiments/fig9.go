package experiments

import (
	"github.com/mitosis-project/mitosis-sim/internal/metrics"
	"github.com/mitosis-project/mitosis-sim/internal/workloads"
)

// RunFig9 regenerates Figure 9: normalized runtime of the six multi-socket
// workloads under first-touch / first-touch+AutoNUMA / interleave data
// placement, each with and without Mitosis page-table replication.
// thp=false reproduces 9a (4KB pages), thp=true 9b (2MB THP). As in the
// paper, every bar is normalized to the workload's 4KB first-touch run.
func RunFig9(cfg Config, thp bool) (*metrics.Figure, error) {
	cfg = cfg.fill()
	title := "Figure 9a: multi-socket scenario, 4KB pages"
	prefix := ""
	if thp {
		title = "Figure 9b: multi-socket scenario, 2MB THP"
		prefix = "T"
	}
	fig := &metrics.Figure{
		Title: title,
		Note:  "normalized to the 4KB first-touch (F) run; improvement = non-Mitosis / Mitosis pair",
	}
	for _, proto := range workloads.MultiSocketSuite() {
		// Baseline: 4KB first-touch.
		base, _, err := msRun(cfg, proto.Name(), MSPolicy{Name: "F"}, false)
		if err != nil {
			return nil, err
		}
		group := metrics.Group{Name: proto.Name()}
		var prev float64 // previous non-Mitosis bar, for improvement pairs
		for _, pol := range MSPolicies() {
			res, _, err := msRun(cfg, proto.Name(), pol, thp)
			if err != nil {
				return nil, err
			}
			norm := float64(res.Counters.Cycles) / float64(base.Counters.Cycles)
			bar := metrics.Bar{
				Config:     prefix + pol.Name,
				Normalized: norm,
				WalkFrac:   res.Counters.WalkCycleFraction(),
			}
			if pol.Mitosis && prev > 0 {
				bar.Improvement = prev / norm
			} else {
				prev = norm
			}
			group.Bars = append(group.Bars, bar)
		}
		fig.Group = append(fig.Group, group)
	}
	return fig, nil
}
