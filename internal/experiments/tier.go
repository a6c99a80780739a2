package experiments

import (
	"fmt"

	mitosis "github.com/mitosis-project/mitosis-sim"
	"github.com/mitosis-project/mitosis-sim/internal/metrics"
)

// tierSockets is the tiered experiments' socket count: two sockets keep
// the runs small while still giving replication a remote socket to cover.
const tierSockets = 2

// tierNodeIndex is the CXL expander's node number on the tiered machine:
// tier nodes append after the per-socket DRAM nodes.
const tierNodeIndex = tierSockets

// tierStepPages sizes the Mover's per-tick budget so a full page-table
// move fits in one tick; the default (64) is tuned for steady-state data
// migration, not for recovering a stranded table in one step.
const tierStepPages = 4096

// tierTickEvery is the tiering engine's scan cadence in engine rounds. A
// tick per round (the default) classifies against a ~32-op sample window,
// in which almost any page looks idle; 64 rounds approximates AutoNUMA's
// coarse scan periods relative to the workload's progress.
const tierTickEvery = 64

// tierMachine is the tiered experiment platform: a two-socket machine
// with one CXL expander hanging off socket 0.
func tierMachine(cfg Config) mitosis.SystemConfig {
	m := cfg.machine(false)
	m.Sockets = tierSockets
	m.Tiers = "cxl@0"
	return m
}

// TierConfigs lists the tier recovery ladder, worst case second: a local
// baseline, the page-table stranded on the CXL expander, then the three
// recovery mechanisms — the tier policy pinning the table back to DRAM,
// static full replication (replicas are DRAM-only by construction), and
// tier policy plus on-demand replication together.
func TierConfigs() []string {
	return []string{"local", "stranded", "ptpin", "replicated", "ptpin+ondemand"}
}

// tierConfigLabel renders a ladder entry as its table row label.
func tierConfigLabel(config string) string {
	switch config {
	case "local":
		return "PT on local DRAM"
	case "stranded":
		return "PT stranded on CXL"
	case "ptpin":
		return "+ tier policy (hotcold-ptpin)"
	case "replicated":
		return "+ static replication (all)"
	case "ptpin+ondemand":
		return "+ ptpin and ondemand replication"
	default:
		return config
	}
}

// TierScenario builds one rung of the tier recovery ladder through the
// public declarative spec: a single-threaded GUPS on socket 0 of the
// tiered machine, its page-table either local or stranded on the CXL
// expander, recovered (or not) by the rung's mechanism.
func TierScenario(cfg Config, config string) mitosis.Scenario {
	cfg = cfg.fill()
	opts := []mitosis.ProcOpt{
		mitosis.OnSockets(0),
		mitosis.WithPhases(mitosis.Warmup(cfg.Warmup), mitosis.Measure(cfg.Ops)),
	}
	if config != "local" {
		opts = append(opts, mitosis.WithPTNode(tierNodeIndex))
	}
	switch config {
	case "ptpin", "ptpin+ondemand":
		opts = append(opts, mitosis.WithTiering(mitosis.TieringSpec{
			Policy:    "hotcold-ptpin",
			TickEvery: tierTickEvery,
			StepPages: tierStepPages,
		}))
	case "replicated":
		opts = append(opts, mitosis.WithReplication(mitosis.ReplicationSpec{All: true}))
	}
	if config == "ptpin+ondemand" {
		opts = append(opts, mitosis.UnderPolicy("ondemand"))
	}
	return mitosis.NewScenario(fmt.Sprintf("tier/GUPS/%s", config),
		mitosis.OnMachine(tierMachine(cfg)),
		mitosis.WithSeed(cfg.Seed),
		mitosis.WithProc(mitosis.NewProc("gups",
			mitosis.GUPS(mitosis.InSuite("wm"), mitosis.Scaled(cfg.Scale)),
			opts...,
		)),
	)
}

// tierRun executes one ladder rung and returns its full result.
func tierRun(cfg Config, config string) (*mitosis.RunResult, error) {
	sc := TierScenario(cfg, config)
	rr, err := mitosis.Run(sc)
	if err != nil {
		return nil, runErr("tier "+config, err)
	}
	return rr, nil
}

// RunTierTable measures the tier recovery ladder: how much of the
// stranded configuration's remote-walk cost each mechanism recovers. The
// headline shape: stranding the page-table on a CXL expander inflates the
// remote-walk-cycle fraction well past the local baseline; the tier
// policy's page-table pin and page-table replication each independently
// recover nearly all of it, because both put the walker's reads back on
// socket DRAM.
func RunTierTable(cfg Config) (*metrics.Table, error) {
	cfg = cfg.fill()
	t := &metrics.Table{
		Title: "Tiered memory: page-table placement on a CXL expander (2 sockets + cxl@0)",
		Note:  "GUPS on socket 0; measured phase; tier-walk % = walker reads served by the CXL node",
		Columns: []string{"Configuration", "walk-cycle %", "remote-walk %",
			"tier-walk %", "recovered"},
	}
	var worst float64
	for _, config := range TierConfigs() {
		rr, err := tierRun(cfg, config)
		if err != nil {
			return nil, err
		}
		c := rr.Measured("gups").Counters
		remote := float64(c.RemoteWalkCycles)
		if config == "stranded" {
			worst = remote
		}
		recovered := "-"
		if config != "local" && config != "stranded" && worst > 0 {
			recovered = metrics.Pct(1 - remote/worst)
		}
		t.AddRow(tierConfigLabel(config),
			metrics.Pct(c.WalkCycleFraction()),
			metrics.Pct(c.RemoteWalkCycleFraction()),
			metrics.Pct(c.TierWalkFraction()),
			recovered)
	}
	return t, nil
}

// TierResult is the tier bench target's replayable payload: the canonical
// tiered scenario's full RunResult (spec, counters and tiering telemetry),
// embedded verbatim in BENCH_tier.json so `mitosis-bench -replay` can
// verify bit-identical counters.
type TierResult struct {
	*mitosis.RunResult
}

// TierBenchScenario is the canonical tiered scenario the bench harness
// records: three GUPS processes on the tiered machine, every page-table
// stranded on the CXL expander — one left stranded, one recovered by the
// hotcold-ptpin tier policy, one running the tier policy and the ondemand
// replication policy together, so the record captures the replication x
// tiering interaction at the round barriers. A fourth process runs the
// zipf-skewed Memcached with its data bound to the CXL expander: the
// tracker's decayed scores find the hot head and the Mover promotes it to
// DRAM, covering the promotion path GUPS's uniform accesses never take.
func TierBenchScenario(cfg Config) mitosis.Scenario {
	cfg = cfg.fill()
	proc := func(name string, opts ...mitosis.ProcOpt) mitosis.ProcSpec {
		base := []mitosis.ProcOpt{
			mitosis.OnSockets(0),
			mitosis.WithPTNode(tierNodeIndex),
			mitosis.WithPhases(mitosis.Warmup(cfg.Warmup), mitosis.Measure(cfg.Ops)),
		}
		return mitosis.NewProc(name,
			mitosis.GUPS(mitosis.InSuite("wm"), mitosis.Scaled(cfg.Scale)),
			append(base, opts...)...,
		)
	}
	tiering := mitosis.TieringSpec{Policy: "hotcold-ptpin", TickEvery: tierTickEvery, StepPages: tierStepPages}
	return mitosis.NewScenario("bench/tier-recovery",
		mitosis.OnMachine(tierMachine(cfg)),
		mitosis.WithSeed(cfg.Seed),
		mitosis.WithProc(proc("stranded")),
		mitosis.WithProc(proc("ptpin", mitosis.WithTiering(tiering))),
		mitosis.WithProc(proc("combo", mitosis.WithTiering(tiering), mitosis.UnderPolicy("ondemand"))),
		mitosis.WithProc(mitosis.NewProc("promote",
			mitosis.KeyValue("Memcached", mitosis.InSuite("ms"), mitosis.Scaled(cfg.Scale)),
			mitosis.OnSockets(0),
			mitosis.WithDataBind(tierNodeIndex),
			// The tracker samples DRAM-level accesses, which the LLC has
			// already filtered: the zipf head's re-misses are sparse, so a
			// low hot threshold is what finds them.
			mitosis.WithTiering(mitosis.TieringSpec{
				Policy:       "hotcold-ptpin",
				TickEvery:    tierTickEvery,
				StepPages:    tierStepPages,
				HotThreshold: 2,
			}),
			mitosis.WithPhases(mitosis.Warmup(cfg.Warmup), mitosis.Measure(cfg.Ops)),
		)),
	)
}

// RunTierScenario executes the canonical tiered scenario through the
// public facade.
func RunTierScenario(cfg Config) (*TierResult, error) {
	cfg = cfg.fill()
	sc := TierBenchScenario(cfg)
	rr, err := mitosis.Run(sc)
	if err != nil {
		return nil, runErr("tier scenario", err)
	}
	return &TierResult{rr}, nil
}

// String renders the per-phase counters with the tier split plus each
// tiering engine's outcome.
func (v *TierResult) String() string {
	t := &metrics.Table{
		Title: fmt.Sprintf("Tiered scenario %q (engine %s)", v.Scenario.Name, v.Engine),
		Note:  "replayable: mitosis-bench -replay BENCH_tier.json verifies bit-identical counters",
		Columns: []string{"process", "phase", "ops", "walk%", "remote-walk%",
			"tier-walk%", "replicas"},
	}
	for _, ph := range v.Phases {
		c := ph.Counters
		t.AddRow(ph.Process, ph.Phase,
			fmt.Sprintf("%d", c.Ops),
			metrics.Pct(c.WalkCycleFraction()),
			metrics.Pct(c.RemoteWalkCycleFraction()),
			metrics.Pct(c.TierWalkFraction()),
			fmt.Sprintf("%v", ph.ReplicaNodes))
	}
	for _, to := range v.Tiering {
		t.Note += fmt.Sprintf("; %s tier policy %q: %d actions, %d pages promoted, %d demoted, %d PT moves",
			to.Process, to.Policy, len(to.Actions), to.PromotedPages, to.DemotedPages, to.PTMoves)
	}
	for _, po := range v.Policies {
		t.Note += fmt.Sprintf("; %s policy %q applied %d actions", po.Process, po.Policy, len(po.Actions))
	}
	return t.String()
}
