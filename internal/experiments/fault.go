package experiments

import (
	"fmt"
	"strings"

	mitosis "github.com/mitosis-project/mitosis-sim"
)

// faultMachine is the 4-socket platform the fault ladder runs on. The
// ladder is a recovery demonstration, not a throughput benchmark, so it
// keeps the footprint small enough that the committed BENCH_fault.json
// replays in seconds.
func faultMachine() mitosis.SystemConfig {
	return mitosis.SystemConfig{Sockets: 4, CoresPerSocket: 2, MemoryPerNode: 256 << 20}
}

// faultLadderScenario is a single GUPS process on socket 0 under the given
// fault plan; replicated pins eager page-table replicas on nodes 0..2 so
// they exist before any event fires.
func faultLadderScenario(name, plan string, seed int64, replicated bool) mitosis.Scenario {
	opts := []mitosis.ProcOpt{
		mitosis.OnSockets(0),
		mitosis.WithPhases(mitosis.Warmup(500), mitosis.Measure(2000)),
	}
	if replicated {
		opts = append(opts, mitosis.WithReplication(mitosis.ReplicationSpec{Nodes: []int{0, 1, 2}, Eager: true}))
	}
	return mitosis.NewScenario(name,
		mitosis.OnMachine(faultMachine()),
		mitosis.WithSeed(seed),
		mitosis.WithFaults(plan),
		mitosis.WithProc(mitosis.NewProc("gups",
			mitosis.GUPS(mitosis.InSuite("wm"), mitosis.Scaled(1.0/32)),
			opts...)),
	)
}

// faultPressureScenario is the OOM rung: two processes on different
// sockets, then a pressure floor on node 0 that reclaim alone cannot meet,
// so the ladder's last rung kills the largest-footprint process there
// while the bystander on socket 1 runs to completion.
func faultPressureScenario(seed int64) mitosis.Scenario {
	return mitosis.NewScenario("fault/pressure-oom",
		mitosis.OnMachine(faultMachine()),
		mitosis.WithSeed(seed),
		mitosis.WithFaults("pressure:r8:n0:f1000000"),
		mitosis.WithProc(mitosis.NewProc("big",
			mitosis.GUPS(mitosis.InSuite("wm"), mitosis.Scaled(1.0/16)),
			mitosis.OnSockets(0),
			mitosis.WithPhases(mitosis.Measure(2000)))),
		mitosis.WithProc(mitosis.NewProc("small",
			mitosis.GUPS(mitosis.InSuite("wm"), mitosis.Scaled(1.0/64)),
			mitosis.OnSockets(1),
			mitosis.WithPhases(mitosis.Measure(2000)))),
	)
}

// FaultRow is one rung of the kill-vs-recover ladder: the scenario's fault
// outcome summary plus the full replayable RunResult.
type FaultRow struct {
	// Cell names the rung ("replicated-mce", "stranded-mce",
	// "node-offline", "pressure-oom").
	Cell string `json:"cell"`
	// Plan echoes the fault DSL the rung injected.
	Plan string `json:"plan"`
	// Injected counts plan events fired; the kill/recover columns say what
	// the machine did about them.
	Injected       int    `json:"injected"`
	PTRebuilds     int    `json:"pt_rebuilds,omitempty"`
	SigbusKills    int    `json:"sigbus_kills,omitempty"`
	OOMKills       int    `json:"oom_kills,omitempty"`
	NodesOfflined  int    `json:"nodes_offlined,omitempty"`
	EvacuatedPages int    `json:"evacuated_pages,omitempty"`
	RecoveryCycles uint64 `json:"recovery_cycles,omitempty"`
	// Survivors counts processes alive at the end of the run.
	Survivors int `json:"survivors"`
	// Result is the rung's complete record; replaying Result.Scenario
	// reproduces every counter and the fault outcome bit-for-bit.
	Result *mitosis.RunResult `json:"result"`
}

// FaultBench is the faults target's machine-readable payload: the
// kill-vs-recover ladder behind BENCH_fault.json. The "ladder" key is the
// record's replay signature (mitosis-bench -replay re-executes every rung).
type FaultBench struct {
	Rows []FaultRow `json:"ladder"`
}

// faultLadder defines the four rungs: the same ECC poison with and without
// page-table replicas (recover vs die), a node hot-remove, and a pressure
// wave that walks the graceful-degradation ladder to its OOM rung.
func faultLadder(seed int64) []struct {
	cell  string
	sc    mitosis.Scenario
	check func(*mitosis.FaultOutcome) error
} {
	return []struct {
		cell  string
		sc    mitosis.Scenario
		check func(*mitosis.FaultOutcome) error
	}{
		{
			cell: "replicated-mce",
			sc:   faultLadderScenario("fault/replicated-mce", "poison-pt:r8:p0:n1;poison-pt:r24:p0:n0", seed, true),
			check: func(fo *mitosis.FaultOutcome) error {
				if fo.PTRebuilds != 2 || fo.SigbusKills != 0 || fo.OOMKills != 0 {
					return fmt.Errorf("replica failover did not engage: %d rebuilds, %d+%d kills",
						fo.PTRebuilds, fo.SigbusKills, fo.OOMKills)
				}
				if fo.RecoveryCycles == 0 {
					return fmt.Errorf("failover charged zero recovery cycles")
				}
				return nil
			},
		},
		{
			cell: "stranded-mce",
			sc:   faultLadderScenario("fault/stranded-mce", "poison-pt:r24:p0:n0", seed, false),
			check: func(fo *mitosis.FaultOutcome) error {
				if fo.SigbusKills != 1 {
					return fmt.Errorf("unreplicated poison did not SIGBUS: %+v", fo.Killed)
				}
				return nil
			},
		},
		{
			cell: "node-offline",
			sc:   faultLadderScenario("fault/node-offline", "offline:r12:n1", seed, true),
			check: func(fo *mitosis.FaultOutcome) error {
				if fo.NodesOfflined != 1 || len(fo.Killed) != 0 {
					return fmt.Errorf("offline evacuation failed: %d offlined, killed %+v",
						fo.NodesOfflined, fo.Killed)
				}
				return nil
			},
		},
		{
			cell: "pressure-oom",
			sc:   faultPressureScenario(seed),
			check: func(fo *mitosis.FaultOutcome) error {
				if fo.OOMKills != 1 {
					return fmt.Errorf("pressure ladder did not reach the OOM rung: %+v", fo.Killed)
				}
				return nil
			},
		},
	}
}

// RunFaultBench executes the kill-vs-recover ladder. Each rung's record
// embeds its scenario, so a replay of BENCH_fault.json checks the fault
// engine's determinism contract.
func RunFaultBench(cfg Config) (*FaultBench, error) {
	cfg = cfg.fill()
	b := &FaultBench{}
	for _, rung := range faultLadder(cfg.Seed) {
		rr, err := mitosis.Run(rung.sc)
		if err != nil {
			return nil, runErr("faults "+rung.cell, err)
		}
		fo := rr.Faults
		if fo == nil {
			return nil, fmt.Errorf("faults %s: run recorded no fault outcome", rung.cell)
		}
		if err := rung.check(fo); err != nil {
			return nil, fmt.Errorf("faults %s: %w", rung.cell, err)
		}
		b.Rows = append(b.Rows, FaultRow{
			Cell:           rung.cell,
			Plan:           fo.Plan,
			Injected:       fo.Injected,
			PTRebuilds:     fo.PTRebuilds,
			SigbusKills:    fo.SigbusKills,
			OOMKills:       fo.OOMKills,
			NodesOfflined:  fo.NodesOfflined,
			EvacuatedPages: fo.EvacuatedPages,
			RecoveryCycles: fo.RecoveryCycles,
			Survivors:      len(fo.Health) - len(fo.Killed),
		})
		b.Rows[len(b.Rows)-1].Result = rr
	}
	return b, nil
}

func (b *FaultBench) String() string {
	var s strings.Builder
	fmt.Fprintf(&s, "Fault injection: kill-vs-recover ladder\n")
	fmt.Fprintf(&s, "  %-16s %-38s %9s %9s %6s %10s %9s\n",
		"cell", "plan", "injected", "rebuilds", "kills", "recovery", "survivors")
	for _, r := range b.Rows {
		kills := r.SigbusKills + r.OOMKills
		fmt.Fprintf(&s, "  %-16s %-38s %9d %9d %6d %10d %9d\n",
			r.Cell, r.Plan, r.Injected, r.PTRebuilds, kills, r.RecoveryCycles, r.Survivors)
	}
	return s.String()
}
