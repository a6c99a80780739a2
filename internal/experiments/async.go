package experiments

import (
	"fmt"

	mitosis "github.com/mitosis-project/mitosis-sim"
	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/metrics"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
	"github.com/mitosis-project/mitosis-sim/internal/workloads"
)

// RunAblationAsyncReplication evaluates §6.1's background-replication
// sketch: enabling Mitosis on an already-running large process either
// stalls it while the whole table is copied (eager SetMask, cost billed to
// the application's core) or proceeds in batches on per-node background
// threads while the application keeps executing operations. Both end at
// the same replicated steady state; only where the copy cycles land
// differs.
func RunAblationAsyncReplication(cfg Config) (*metrics.Table, error) {
	cfg = cfg.fill()
	t := &metrics.Table{
		Title:   "Ablation: eager vs background replica creation (paper §6.1)",
		Note:    "enabling 4-way replication on a running multi-socket XSBench",
		Columns: []string{"Mode", "app blocked (Kcyc)", "copy work (Kcyc)", "steady cyc/op"},
	}
	for _, background := range []bool{false, true} {
		k := mitosis.NewSystem(cfg.machine(false)).Kernel()
		w := cfg.workload(cloneMS("XSBench"))
		p, err := k.CreateProcess(kernel.ProcessOpts{Name: w.Name(), Home: 0, DataLocality: w.DataLocality()})
		if err != nil {
			return nil, err
		}
		if err := k.RunOn(p, oneCorePerSocket(k)); err != nil {
			return nil, err
		}
		env := workloads.NewEnv(k, p, false, cfg.Seed)
		if err := w.Setup(env); err != nil {
			return nil, err
		}
		if _, err := workloads.Run(env, w, cfg.Warmup); err != nil {
			return nil, err
		}

		appCore := p.Cores()[0]
		var blocked, copyWork numa.Cycles
		if background {
			type job struct {
				ir  *core.IncrementalReplication
				ctx *pvops.OpCtx
			}
			var jobs []job
			for n := 1; n < k.Topology().Nodes(); n++ {
				ir, ctx, err := k.StartBackgroundReplication(p, numa.NodeID(n))
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, job{ir, ctx})
			}
			// The application keeps running while the kthreads copy —
			// that is the point of the design.
			steps := w.NewThread(env, 0)
			done := false
			for !done {
				done = true
				for _, j := range jobs {
					if !j.ir.Done() {
						if _, err := j.ir.Step(j.ctx, 8); err != nil {
							return nil, err
						}
						done = false
					}
				}
				for i := 0; i < 64; i++ {
					va, wr := steps()
					if err := k.Machine().Access(appCore, va, wr); err != nil {
						return nil, err
					}
				}
			}
			// Publishing the replicas is the only moment the app blocks.
			before := k.Machine().Stats(appCore).Cycles
			for _, j := range jobs {
				k.FinishBackgroundReplication(p, j.ir)
			}
			blocked = k.Machine().Stats(appCore).Cycles - before
			for _, j := range jobs {
				copyWork += j.ctx.Meter.Cycles
			}
		} else {
			before := k.Machine().Stats(appCore).Cycles
			if err := p.SetReplicationMask(allNodes(k)); err != nil {
				return nil, err
			}
			blocked = k.Machine().Stats(appCore).Cycles - before
			copyWork = blocked
		}

		res, err := workloads.Run(env, w, cfg.Ops)
		if err != nil {
			return nil, err
		}
		mode := "eager (SetMask)"
		if background {
			mode = "background kthreads"
		}
		t.AddRow(mode,
			fmt.Sprintf("%.0f", float64(blocked)/1e3),
			fmt.Sprintf("%.0f", float64(copyWork)/1e3),
			fmt.Sprintf("%.0f", float64(res.TotalCycles)/float64(res.Ops)))
	}
	return t, nil
}
