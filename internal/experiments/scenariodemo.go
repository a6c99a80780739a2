package experiments

import (
	"fmt"

	mitosis "github.com/mitosis-project/mitosis-sim"
	"github.com/mitosis-project/mitosis-sim/internal/metrics"
)

// DemoScenario is the bench harness's canonical declarative scenario: a
// two-process run exercising the spec surface end to end — a stranded-
// table GUPS driven by the OnDemand runtime policy, then a multi-socket
// PageRank with a static full-machine mask. Its BENCH record embeds this
// exact spec, and the harness's -replay flag re-executes it and verifies
// bit-identical counters.
func DemoScenario(cfg Config) mitosis.Scenario {
	cfg = cfg.fill()
	return mitosis.NewScenario("bench/scenario-demo",
		mitosis.OnMachine(cfg.machine(false)),
		mitosis.WithSeed(cfg.Seed),
		mitosis.WithProc(mitosis.NewProc("gups-stranded",
			mitosis.GUPS(mitosis.InSuite("wm"), mitosis.Scaled(cfg.Scale)),
			mitosis.OnSockets(0),
			mitosis.WithDataBind(0),
			mitosis.WithPTNode(1),
			mitosis.UnderPolicy("ondemand"),
			mitosis.WithPhases(mitosis.Warmup(cfg.Warmup), mitosis.Measure(cfg.Ops)),
		)),
		mitosis.WithProc(mitosis.NewProc("pagerank-ms",
			mitosis.Analytics("PageRank", mitosis.InSuite("wm"), mitosis.Scaled(cfg.Scale)),
			mitosis.WithReplication(mitosis.ReplicationSpec{All: true}),
			mitosis.WithPhases(mitosis.Measure(cfg.Ops)),
		)),
	)
}

// ScenarioResult is the scenario target's output: the full RunResult
// (spec + counters + policy telemetry), rendered as a table for humans
// and embedded verbatim in BENCH_scenario.json for replay.
type ScenarioResult struct {
	*mitosis.RunResult
}

// RunScenario executes the demo scenario through the public facade.
func RunScenario(cfg Config) (*ScenarioResult, error) {
	cfg = cfg.fill()
	sc := DemoScenario(cfg)
	rr, err := mitosis.Run(sc)
	if err != nil {
		return nil, runErr("scenario demo", err)
	}
	return &ScenarioResult{rr}, nil
}

// String renders the per-phase counters.
func (s *ScenarioResult) String() string {
	t := &metrics.Table{
		Title: fmt.Sprintf("Declarative scenario %q (engine %s)", s.Scenario.Name, s.Engine),
		Note:  "replayable: mitosis-bench -replay BENCH_scenario.json verifies bit-identical counters",
		Columns: []string{"process", "phase", "ops", "cycles", "walk%", "remote-walk%",
			"replicas"},
	}
	for _, ph := range s.Phases {
		c := ph.Counters
		t.AddRow(ph.Process, ph.Phase,
			fmt.Sprintf("%d", c.Ops),
			fmt.Sprintf("%d", c.Cycles),
			metrics.Pct(c.WalkCycleFraction()),
			metrics.Pct(c.RemoteWalkCycleFraction()),
			fmt.Sprintf("%v", ph.ReplicaNodes))
	}
	for _, po := range s.Policies {
		t.Note += fmt.Sprintf("; %s policy %q applied %d actions", po.Process, po.Policy, len(po.Actions))
	}
	return t.String()
}
