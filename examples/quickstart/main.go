// Quickstart: describe an experiment as a declarative scenario — a
// 4-socket machine, a GUPS-style process spanning every socket with
// first-touch data skewed toward socket 0 (§3.1) — run it with and
// without Mitosis page-table replication, and replay it from its own
// JSON to show the run is fully reproducible.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"reflect"

	mitosis "github.com/mitosis-project/mitosis-sim"
)

func main() {
	machine := mitosis.SystemConfig{Sockets: 4, CoresPerSocket: 4, MemoryPerNode: 1 << 30}

	scenario := func(replicate bool) mitosis.Scenario {
		proc := mitosis.NewProc("app",
			// The update table is touched in from one socket, so its
			// page-tables all land there — every other socket then pays
			// remote page walks.
			mitosis.GUPS(mitosis.Scaled(1.0/4)),
			mitosis.WithPhases(mitosis.Warmup(10000), mitosis.Measure(50000)),
		)
		name := "quickstart/single-table"
		if replicate {
			proc.Replication = mitosis.ReplicationSpec{All: true} // numactl --pgtablerepl=all
			name = "quickstart/mitosis"
		}
		return mitosis.NewScenario(name,
			mitosis.OnMachine(machine),
			mitosis.WithSeed(1),
			mitosis.WithProc(proc))
	}

	for _, replicate := range []bool{false, true} {
		rr, err := mitosis.Run(scenario(replicate))
		if err != nil {
			log.Fatal(err)
		}
		m := rr.Measured("app").Counters
		label := "single page-table:"
		if replicate {
			label = "replicated (Mitosis):"
		}
		fmt.Printf("%-22s %12d cycles  walk %5.1f%%  remote walks %3.0f%%\n",
			label, m.Cycles, 100*m.WalkCycleFraction(), 100*m.RemoteWalkFraction())
	}

	// The scenario is data: serialize it, read it back, run it again —
	// the counters come out bit-identical (the determinism contract).
	sc := scenario(true)
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	var replayed mitosis.Scenario
	if err := json.Unmarshal(data, &replayed); err != nil {
		log.Fatal(err)
	}
	a, err := mitosis.Run(sc)
	if err != nil {
		log.Fatal(err)
	}
	b, err := mitosis.Run(replayed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nscenario JSON is %d bytes; replay bit-identical: %v\n",
		len(data), reflect.DeepEqual(a.Phases, b.Phases))
}
