package experiments

import (
	"fmt"
	"slices"
	"strings"

	mitosis "github.com/mitosis-project/mitosis-sim"
	"github.com/mitosis-project/mitosis-sim/internal/metrics"
)

// PolicyRow is one policy's outcome in the comparison.
type PolicyRow struct {
	Policy      string  `json:"policy"`
	CyclesPerOp float64 `json:"cycles_per_op"`
	// RemoteWalkCycleFraction is remote page-table DRAM cycles over total
	// cycles for the measured run.
	RemoteWalkCycleFraction float64 `json:"remote_walk_cycle_fraction"`
	// ReplicaPTPages counts the replica page-table pages created over the
	// whole run — the memory the policy spent.
	ReplicaPTPages uint64 `json:"replica_pt_pages"`
	// FinalReplicaNodes lists the nodes holding a copy at the end.
	FinalReplicaNodes []int `json:"final_replica_nodes"`
	// Actions is the applied action log (dynamic policies only).
	Actions []string `json:"actions,omitempty"`
	// ReplicaTimeline is the change-point-compressed replica count per
	// policy tick (dynamic policies only).
	ReplicaTimeline []mitosis.ReplicaTick `json:"replica_timeline,omitempty"`
	// BackgroundKCycles is the copy work done off the critical path by the
	// policy engine's background replication (dynamic policies only).
	BackgroundKCycles float64 `json:"background_kcycles,omitempty"`
	// Scenario is the exact declarative spec this row was measured from;
	// replaying it reproduces the row bit-for-bit.
	Scenario *mitosis.Scenario `json:"scenario,omitempty"`
}

// PolicyComparison is the policy-comparison driver's result: one
// single-socket-heavy workload with a stranded remote page-table (the
// paper's §3.2 placement), run under each replication policy.
type PolicyComparison struct {
	Workload string      `json:"workload"`
	Rows     []PolicyRow `json:"rows"`
}

// String renders the comparison as a table.
func (pc *PolicyComparison) String() string {
	t := &metrics.Table{
		Title: fmt.Sprintf("Replication-policy comparison (%s, 1 socket, page-table stranded remote)", pc.Workload),
		Note:  "dynamic policies tick at the engine's round barriers; replicas build incrementally",
		Columns: []string{"Policy", "cyc/op", "remote-walk%", "replica PT pages",
			"final copies", "actions"},
	}
	for _, r := range pc.Rows {
		actions := "-"
		if len(r.Actions) > 0 {
			actions = strings.Join(r.Actions, " ")
		}
		t.AddRow(r.Policy,
			fmt.Sprintf("%.0f", r.CyclesPerOp),
			metrics.Pct(r.RemoteWalkCycleFraction),
			fmt.Sprintf("%d", r.ReplicaPTPages),
			fmt.Sprintf("%v", r.FinalReplicaNodes),
			actions)
	}
	return t.String()
}

// PolicyComparisonNames lists the rows RunPolicyComparison produces by
// default: a no-replication baseline plus the built-in policies.
func PolicyComparisonNames() []string {
	return []string{"none", "static", "ondemand", "costadaptive"}
}

// RunPolicyComparison compares the replication policies on a
// single-socket-heavy GUPS whose page-table is stranded on a remote node
// while its data is local — the paper's workload-migration placement
// (§3.2), which is exactly where a dynamic policy should replicate to the
// one active socket instead of everywhere. "static" is the compatibility
// baseline (full-machine mask decided up front, the Sysctl semantics);
// "ondemand" should end with strictly fewer replica pages while keeping
// the remote-walk cycle fraction close. only filters the rows ("" or nil
// selects all).
func RunPolicyComparison(cfg Config, only []string) (*PolicyComparison, error) {
	cfg = cfg.fill()
	pc := &PolicyComparison{Workload: "GUPS"}
	for _, name := range PolicyComparisonNames() {
		if len(only) > 0 && !slices.Contains(only, name) {
			continue
		}
		row, err := runPolicyRow(cfg, name)
		if err != nil {
			return nil, runErr("policy "+name, err)
		}
		pc.Rows = append(pc.Rows, row)
	}
	return pc, nil
}

// PolicyScenario translates one policy row into the public declarative
// spec: single-threaded GUPS on socket 0 with data bound local and every
// page-table page forced to node 1 — the stranded-table configuration.
// "none" runs without any policy; "static" pairs the never-acting Static
// policy with an up-front full-machine mask (the pre-refactor sysctl
// semantics); the dynamic policies start bare and act on telemetry.
func PolicyScenario(cfg Config, name string) mitosis.Scenario {
	cfg = cfg.fill()
	opts := []mitosis.ProcOpt{
		mitosis.OnSockets(0),
		mitosis.WithDataBind(0),
		mitosis.WithPTNode(1),
		mitosis.WithPhases(mitosis.Measure(cfg.Ops)),
	}
	switch name {
	case "none":
		// No replication ever: the RPI baseline.
	case "static":
		opts = append(opts,
			mitosis.WithReplication(mitosis.ReplicationSpec{All: true}),
			mitosis.UnderPolicy("static"))
	default:
		opts = append(opts, mitosis.UnderPolicy(name))
	}
	proc := mitosis.NewProc("GUPS",
		mitosis.GUPS(mitosis.InSuite("wm"), mitosis.Scaled(cfg.Scale)),
		opts...)
	return mitosis.NewScenario("policy/"+name,
		mitosis.OnMachine(cfg.machine(false)),
		mitosis.WithSeed(cfg.Seed),
		mitosis.WithProc(proc))
}

// runPolicyRow measures one policy on a fresh machine, through the public
// scenario API. The row embeds the exact spec that produced it.
func runPolicyRow(cfg Config, name string) (PolicyRow, error) {
	cfg = cfg.fill()
	row := PolicyRow{Policy: name}
	sc := PolicyScenario(cfg, name)
	rr, err := mitosis.Run(sc)
	if err != nil {
		return row, err
	}
	meas := rr.Measured("GUPS")
	row.CyclesPerOp = float64(meas.Counters.TotalCycles) / float64(meas.Counters.Ops)
	row.RemoteWalkCycleFraction = meas.Counters.RemoteWalkCycleFraction()
	row.ReplicaPTPages = rr.ReplicaPTPages
	row.FinalReplicaNodes = meas.ReplicaNodes
	for _, po := range rr.Policies {
		row.Actions = po.Actions
		row.ReplicaTimeline = po.ReplicaTimeline
		row.BackgroundKCycles = float64(po.BackgroundCycles) / 1e3
	}
	row.Scenario = &rr.Scenario
	return row, nil
}
