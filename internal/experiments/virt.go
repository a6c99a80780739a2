package experiments

import (
	"fmt"

	mitosis "github.com/mitosis-project/mitosis-sim"
	"github.com/mitosis-project/mitosis-sim/internal/metrics"
)

// virtHomeNode is the node the VM "booted" on in the virtualized
// experiments: nested and guest page-tables (and, in the worst case, the
// guest's data) live there while the vCPU runs on socket 0 — the paper's
// migrated-VM configuration (§7.4).
const virtHomeNode = 1

// VirtModes lists the §7.4 replication ladder, worst case first.
func VirtModes() []string {
	return []string{
		mitosis.VMReplicationNone,
		mitosis.VMReplicationGPT,
		mitosis.VMReplicationEPT,
		mitosis.VMReplicationBoth,
	}
}

// virtModeLabel renders a replication mode as the row label of the
// virtualized tables.
func virtModeLabel(mode string) string {
	switch mode {
	case mitosis.VMReplicationGPT:
		return "+ guest PT replicated"
	case mitosis.VMReplicationEPT:
		return "+ nested PT replicated"
	case mitosis.VMReplicationBoth:
		return "+ both replicated"
	default:
		return "VM migrated (no Mitosis)"
	}
}

// VirtScenario builds the virtualized GUPS scenario for one replication
// mode through the public declarative spec: a single-threaded GUPS runs as
// a guest on socket 0 while the VM's nested table, the guest page-table
// and the guest's data all live on virtHomeNode — every access of the
// two-dimensional walk crosses the interconnect until gPT and/or ePT
// replication recovers it.
func VirtScenario(cfg Config, mode string) mitosis.Scenario {
	cfg = cfg.fill()
	return mitosis.NewScenario(fmt.Sprintf("virt/GUPS/%s", mode),
		mitosis.OnMachine(cfg.machine(false)),
		mitosis.WithSeed(cfg.Seed),
		mitosis.WithProc(mitosis.NewProc("gups-vm",
			mitosis.GUPS(mitosis.InSuite("wm"), mitosis.Scaled(cfg.Scale)),
			mitosis.OnSockets(0),
			mitosis.WithDataBind(virtHomeNode),
			mitosis.WithVM(mitosis.VMSpec{HomeNode: virtHomeNode, Replication: mode}),
			mitosis.WithPhases(mitosis.Warmup(cfg.Warmup), mitosis.Measure(cfg.Ops)),
		)),
	)
}

// virtRun executes one virtualized configuration and returns the measured
// counters.
func virtRun(cfg Config, mode string) (mitosis.Counters, error) {
	sc := VirtScenario(cfg, mode)
	rr, err := mitosis.Run(sc)
	if err != nil {
		return mitosis.Counters{}, runErr("virt "+mode, err)
	}
	return rr.Measured("gups-vm").Counters, nil
}

// RunVirtTable6 extends the paper's Table 6 to the virtualized dimension
// (§7.4): end-to-end measured walk cost of a guest workload under the
// migrated-VM worst case, then with gPT, ePT and both replicated. The
// "recovered" column is the fraction of the worst case's remote-walk
// cycles each configuration eliminates — the headline claim is that
// replicating both dimensions recovers well over half of it.
func RunVirtTable6(cfg Config) (*metrics.Table, error) {
	cfg = cfg.fill()
	t := &metrics.Table{
		Title: "Table 6 (virtualized, §7.4): guest GUPS under gPT/ePT replication",
		Note:  "VM + guest initialized on node 1, vCPU on socket 0; measured phase",
		Columns: []string{"Configuration", "walk-cycle %", "remote-walk %",
			"guest Mcycles", "nested Mcycles", "recovered"},
	}
	var worst float64
	for _, mode := range VirtModes() {
		c, err := virtRun(cfg, mode)
		if err != nil {
			return nil, err
		}
		remote := float64(c.RemoteWalkCycles)
		if mode == mitosis.VMReplicationNone {
			worst = remote
		}
		recovered := "-"
		if mode != mitosis.VMReplicationNone && worst > 0 {
			recovered = metrics.Pct(1 - remote/worst)
		}
		t.AddRow(virtModeLabel(mode),
			metrics.Pct(c.WalkCycleFraction()),
			metrics.Pct(c.RemoteWalkCycleFraction()),
			fmt.Sprintf("%.1f", float64(c.GuestWalkCycles)/1e6),
			fmt.Sprintf("%.1f", float64(c.NestedWalkCycles)/1e6),
			recovered)
	}
	return t, nil
}

// RunAblationVirtualization evaluates the §7.4 extension through the
// public scenario spec: nested paging turns a 4-access walk into a
// 24-access two-dimensional walk, every access NUMA-sensitive. A VM
// initialized on one socket and scheduled on another pays remote latency
// on most of them; replicating the nested table, the guest table, or both
// recovers locality level by level.
func RunAblationVirtualization(cfg Config) (*metrics.Table, error) {
	cfg = cfg.fill()
	t := &metrics.Table{
		Title:   "Extension: Mitosis for virtualized (nested) paging (paper §7.4)",
		Note:    "integrated 2D walks of a guest GUPS; VM and guest initialized on node 1, vCPU on socket 0",
		Columns: []string{"Configuration", "avg walk cycles", "remote-walk %", "vs worst"},
	}
	var worst float64
	for _, mode := range VirtModes() {
		c, err := virtRun(cfg, mode)
		if err != nil {
			return nil, err
		}
		avg := 0.0
		if c.Walks > 0 {
			avg = float64(c.WalkCycles) / float64(c.Walks)
		}
		if mode == mitosis.VMReplicationNone {
			worst = avg
		}
		t.AddRow(virtModeLabel(mode),
			fmt.Sprintf("%.0f", avg),
			metrics.Pct(c.RemoteWalkCycleFraction()),
			metrics.X(worst/avg))
	}
	return t, nil
}

// VirtResult is the virt bench target's replayable payload: the canonical
// virtualized scenario's full RunResult (spec + counters), embedded
// verbatim in BENCH_virt.json so `mitosis-bench -replay` can verify
// bit-identical counters.
type VirtResult struct {
	*mitosis.RunResult
}

// VirtBenchScenario is the canonical virtualized scenario the bench
// harness records: the worst-case placement driven by the OnDemand
// runtime policy, which replicates gPT and ePT at round barriers when the
// remote-walk pressure crosses its threshold.
func VirtBenchScenario(cfg Config) mitosis.Scenario {
	sc := VirtScenario(cfg, mitosis.VMReplicationNone)
	sc.Name = "bench/virt-ondemand"
	sc.Processes[0].Policy = mitosis.PolicySpec{Name: "ondemand"}
	return sc
}

// RunVirtScenario executes the canonical virtualized scenario through the
// public facade.
func RunVirtScenario(cfg Config) (*VirtResult, error) {
	cfg = cfg.fill()
	sc := VirtBenchScenario(cfg)
	rr, err := mitosis.Run(sc)
	if err != nil {
		return nil, runErr("virt scenario", err)
	}
	return &VirtResult{rr}, nil
}

// String renders the per-phase counters with the guest/nested split.
func (v *VirtResult) String() string {
	t := &metrics.Table{
		Title: fmt.Sprintf("Virtualized scenario %q (engine %s)", v.Scenario.Name, v.Engine),
		Note:  "replayable: mitosis-bench -replay BENCH_virt.json verifies bit-identical counters",
		Columns: []string{"process", "phase", "ops", "walk%", "remote-walk%",
			"guest Mcy", "nested Mcy", "replicas"},
	}
	for _, ph := range v.Phases {
		c := ph.Counters
		t.AddRow(ph.Process, ph.Phase,
			fmt.Sprintf("%d", c.Ops),
			metrics.Pct(c.WalkCycleFraction()),
			metrics.Pct(c.RemoteWalkCycleFraction()),
			fmt.Sprintf("%.1f", float64(c.GuestWalkCycles)/1e6),
			fmt.Sprintf("%.1f", float64(c.NestedWalkCycles)/1e6),
			fmt.Sprintf("%v", ph.ReplicaNodes))
	}
	for _, po := range v.Policies {
		t.Note += fmt.Sprintf("; %s policy %q applied %d actions", po.Process, po.Policy, len(po.Actions))
	}
	return t.String()
}
