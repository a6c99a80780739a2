package kernel

import (
	"fmt"
	"slices"

	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pvops"
)

// PolicyEngineConfig tunes the runtime replication-policy engine.
type PolicyEngineConfig struct {
	// StepPages bounds the replica pages copied per tick for each in-flight
	// incremental replication, keeping per-tick policy work bounded (the
	// §6.1 background-thread sketch). Default 64.
	StepPages int
}

// ActionRecord is one applied policy action tagged with the round it fired
// on. The record sequence is part of the engine's determinism contract:
// identical runs produce identical logs.
type ActionRecord struct {
	Round  int
	Action core.Action
}

func (r ActionRecord) String() string {
	return fmt.Sprintf("r%d:%v", r.Round, r.Action)
}

// PolicyEngine ticks a core.ReplicationPolicy for one process at the round
// barriers of the workload engine. Each tick it (1) advances in-flight
// incremental replications by a bounded batch, publishing completed ones,
// (2) aggregates the per-socket hardware-counter deltas since the previous
// tick into core.Telemetry, (3) asks the policy for actions and applies
// them, and (4) records the replica-count timeline. All of that runs at a
// quiescent point (no access batch in flight), so it may touch CR3s, the
// mapper and the replication state freely.
type PolicyEngine struct {
	k      *Kernel
	p      *Process
	policy core.ReplicationPolicy
	cfg    PolicyEngineConfig

	prev     []hw.CoreStats // per-socket cumulative snapshot at last tick
	inflight []*bgJob       // in node order of creation (deterministic)
	log      []ActionRecord
	timeline []int
	bgCycles numa.Cycles
}

// bgJob is one in-flight background replication.
type bgJob struct {
	ir  *core.IncrementalReplication
	ctx *pvops.OpCtx
}

// AttachPolicy installs a policy engine for p. The engine is returned to be
// passed as the workload engine's round ticker (workloads.EngineConfig);
// it also registers with the process so memory-pressure reclaim can consult
// the policy. Attaching replaces any previous engine.
func (k *Kernel) AttachPolicy(p *Process, pol core.ReplicationPolicy, cfg PolicyEngineConfig) *PolicyEngine {
	if cfg.StepPages <= 0 {
		cfg.StepPages = 64
	}
	e := &PolicyEngine{
		k: k, p: p, policy: pol, cfg: cfg,
		prev: make([]hw.CoreStats, k.topo.Sockets()),
	}
	p.policyEngine = e
	return e
}

// NewPolicy builds a built-in policy by name ("static", "ondemand",
// "costadaptive") with default thresholds, priced against this kernel's
// cost model where relevant.
func (k *Kernel) NewPolicy(name string) (core.ReplicationPolicy, error) {
	switch name {
	case "static":
		return core.NewStatic(), nil
	case "ondemand":
		return core.NewOnDemand(core.DefaultOnDemandConfig()), nil
	case "costadaptive":
		return core.NewCostAdaptive(core.DefaultCostAdaptiveConfig(), k.cost), nil
	default:
		return nil, fmt.Errorf("kernel: unknown replication policy %q (have %v)", name, core.PolicyNames())
	}
}

// Policy returns the wrapped policy.
func (e *PolicyEngine) Policy() core.ReplicationPolicy { return e.policy }

// ActionLog returns the applied actions in order.
func (e *PolicyEngine) ActionLog() []ActionRecord { return e.log }

// ReplicaTimeline returns, per tick, the number of nodes holding a copy of
// the table (primary included) after the tick's actions were applied.
func (e *PolicyEngine) ReplicaTimeline() []int { return e.timeline }

// BackgroundCycles returns the cycles the background replication kthreads
// have consumed so far (off the application's critical path).
func (e *PolicyEngine) BackgroundCycles() numa.Cycles { return e.bgCycles }

// InFlight returns the number of incremental replications in progress.
func (e *PolicyEngine) InFlight() int { return len(e.inflight) }

// RunStart implements the workload engine's optional run-start hook: the
// per-socket snapshots resynchronize with the machine's current counters,
// so the first tick's telemetry covers only the run (not Setup work, and
// not stale pre-ResetStats values — reusing an engine across runs would
// otherwise underflow the deltas).
func (e *PolicyEngine) RunStart() {
	for s := range e.prev {
		e.prev[s] = e.k.machine.SocketStats(numa.SocketID(s))
	}
}

// RunEnd implements the workload engine's optional run-end hook: leftover
// in-flight replications are aborted (partial replicas torn down), so the
// process does not stay pinned against memory-pressure reclaim after the
// run. The policy re-requests the replica next run if the signal persists.
func (e *PolicyEngine) RunEnd() {
	for _, job := range e.inflight {
		e.k.AbortBackgroundReplication(e.p, job.ir, job.ctx)
		e.drainBg(job)
	}
	e.inflight = nil
}

// AbortInflightOn aborts the in-flight incremental replication
// targeting node, if any, tearing down its partial copy. It returns the
// number of jobs aborted (0 or 1). The fault engine uses it when node
// goes offline.
func (e *PolicyEngine) AbortInflightOn(node numa.NodeID) int {
	aborted := 0
	kept := e.inflight[:0]
	for _, job := range e.inflight {
		if job.ir.Node() != node {
			kept = append(kept, job)
			continue
		}
		e.k.AbortBackgroundReplication(e.p, job.ir, job.ctx)
		e.drainBg(job)
		aborted++
	}
	e.inflight = kept
	return aborted
}

// AbortAllInflight aborts every in-flight incremental replication —
// the pressure ladder's second rung, freeing the partial copies' frames
// before anyone gets OOM-killed. It returns the number aborted.
func (e *PolicyEngine) AbortAllInflight() int {
	aborted := len(e.inflight)
	for _, job := range e.inflight {
		e.k.AbortBackgroundReplication(e.p, job.ir, job.ctx)
		e.drainBg(job)
	}
	e.inflight = nil
	return aborted
}

// Tick implements workloads.RoundTicker: it runs one policy tick at a round
// barrier. round is the 1-based engine round the barrier closed.
func (e *PolicyEngine) Tick(round int) error {
	e.advanceInflight()
	t := e.telemetry(round)
	for _, a := range e.policy.Decide(t) {
		applied, err := e.apply(a)
		if err != nil {
			return err
		}
		if applied {
			e.log = append(e.log, ActionRecord{Round: round, Action: a})
		}
	}
	e.timeline = append(e.timeline, len(e.p.ReplicaNodes()))
	return nil
}

// advanceInflight steps every in-flight replication by the bounded batch,
// publishing finished replicas. A step that fails (strict allocation under
// memory pressure) aborts its job; the policy will re-request the replica
// if the signal persists once memory frees up.
func (e *PolicyEngine) advanceInflight() {
	kept := e.inflight[:0]
	for _, job := range e.inflight {
		done, err := job.ir.Step(job.ctx, e.cfg.StepPages)
		e.drainBg(job)
		if err != nil {
			e.k.AbortBackgroundReplication(e.p, job.ir, job.ctx)
			e.drainBg(job)
			continue
		}
		if done {
			e.k.FinishBackgroundReplication(e.p, job.ir)
			continue
		}
		kept = append(kept, job)
	}
	e.inflight = kept
}

// drainBg moves a job's metered cycles into the engine's background total.
func (e *PolicyEngine) drainBg(job *bgJob) {
	e.bgCycles += job.ctx.Meter.Cycles
	job.ctx.Meter.Cycles = 0
}

// telemetry assembles the tick's per-socket deltas and replication state.
func (e *PolicyEngine) telemetry(round int) *core.Telemetry {
	k, p := e.k, e.p
	topo := k.topo
	primary := p.space.PrimaryNode()
	mask := slices.Clone(p.space.Mask())
	if p.guest != nil {
		// Virtualized process: the guest home plays the primary, and the
		// droppable replica set is every other node holding a gPT or ePT
		// copy.
		primary = p.guest.HomeNode()
		mask = slices.DeleteFunc(p.ReplicaNodes(), func(n numa.NodeID) bool { return n == primary })
	}
	t := &core.Telemetry{
		Round:         round,
		PrimaryNode:   primary,
		PrimarySocket: topo.SocketOfNode(primary),
		Mask:          mask,
		PTPages:       p.policyPTPages(),
		Sockets:       make([]core.SocketSample, topo.Sockets()),
	}
	for _, job := range e.inflight {
		t.InFlight = append(t.InFlight, job.ir.Node())
	}
	for n := 0; n < topo.Nodes(); n++ {
		id := numa.NodeID(n)
		t.MemFree = append(t.MemFree, k.pm.FreeFrames(id))
		t.MemPressure = append(t.MemPressure, k.pm.PressureFrames(id))
		if k.pm.NodeOffline(id) {
			t.Offline = append(t.Offline, id)
		}
	}
	replicated := p.ReplicaNodes()
	for s := 0; s < topo.Sockets(); s++ {
		sid := numa.SocketID(s)
		cur := k.machine.SocketStats(sid)
		d := cur.Sub(e.prev[s])
		e.prev[s] = cur
		node := topo.NodeOf(sid)
		t.Sockets[s] = core.SocketSample{
			Socket:             sid,
			Node:               node,
			RunsCores:          e.runsOn(sid),
			HasReplica:         slices.Contains(replicated, node),
			Ops:                d.Ops,
			Cycles:             d.Cycles,
			WalkCycles:         d.WalkCycles,
			Walks:              d.Walks,
			WalkMemAccesses:    d.WalkMemAccesses,
			WalkRemoteAccesses: d.WalkRemoteAccesses,
			WalkRemoteCycles:   d.WalkRemoteCycles,
			DataMemAccesses:    d.DataMemAccesses,
			DataRemoteAccesses: d.DataRemoteAccesses,
		}
	}
	return t
}

// runsOn reports whether the process has a core on socket s.
func (e *PolicyEngine) runsOn(s numa.SocketID) bool {
	for _, c := range e.p.cores {
		if e.k.topo.SocketOf(c) == s {
			return true
		}
	}
	return false
}

// apply executes one action. It returns whether the action took effect
// (redundant actions — replica already present, node already bare — are
// validated away without logging).
func (e *PolicyEngine) apply(a core.Action) (bool, error) {
	k, p := e.k, e.p
	if p.guest != nil {
		return e.applyVirt(a)
	}
	switch a.Kind {
	case core.ActionReplicate:
		if a.Node == p.space.PrimaryNode() || slices.Contains(p.space.Mask(), a.Node) {
			return false, nil
		}
		for _, job := range e.inflight {
			if job.ir.Node() == a.Node {
				return false, nil
			}
		}
		ir, ctx, err := k.StartBackgroundReplication(p, a.Node)
		if err != nil {
			// Strict allocation failure under memory pressure: skip the
			// action rather than kill the run — mirroring the mid-copy
			// failure path, the policy re-requests once memory frees up.
			return false, nil
		}
		if ir.Done() {
			// Raced with an existing replica; nothing to drive.
			k.endBackgroundReplication(p)
			return false, nil
		}
		e.inflight = append(e.inflight, &bgJob{ir: ir, ctx: ctx})
		return true, nil
	case core.ActionDrop:
		return k.DropReplica(p, a.Node)
	case core.ActionMigrate:
		if e.runsOn(a.Socket) && len(e.socketsOf()) == 1 {
			return false, nil
		}
		if err := k.MigrateProcess(p, a.Socket, MigrateOpts{}); err != nil {
			return false, fmt.Errorf("kernel: policy migrate to socket %d: %w", a.Socket, err)
		}
		return true, nil
	default:
		return false, fmt.Errorf("kernel: unknown policy action %v", a.Kind)
	}
}

// applyVirt executes one action for a virtualized process: replicate and
// drop act on the guest and/or nested tables per the process's configured
// policy layers (gPT and ePT are driven independently when a layer
// selector narrows them), applied eagerly at the round barrier — the VM
// dimensions have no incremental-copy machinery, so the copy stalls the
// vCPU like an explicit mask change would.
func (e *PolicyEngine) applyVirt(a core.Action) (bool, error) {
	k, p := e.k, e.p
	switch a.Kind {
	case core.ActionReplicate:
		applied, err := k.ReplicateVMNode(p, a.Node, p.vmPolicyLayers)
		if err != nil {
			// Allocation pressure mid-copy: swallow the error (the policy
			// re-requests once memory frees up) but keep `applied` — a
			// partially applied both-layers action did repoint roots and
			// must appear in the log.
			return applied, nil
		}
		return applied, nil
	case core.ActionDrop:
		return k.DropVMReplica(p, a.Node, p.vmPolicyLayers)
	case core.ActionMigrate:
		if e.runsOn(a.Socket) && len(e.socketsOf()) == 1 {
			return false, nil
		}
		if err := k.MigrateProcess(p, a.Socket, MigrateOpts{}); err != nil {
			return false, fmt.Errorf("kernel: policy migrate to socket %d: %w", a.Socket, err)
		}
		return true, nil
	default:
		return false, fmt.Errorf("kernel: unknown policy action %v", a.Kind)
	}
}

// socketsOf lists the distinct sockets the process currently runs on.
func (e *PolicyEngine) socketsOf() []numa.SocketID {
	var out []numa.SocketID
	for _, c := range e.p.cores {
		s := e.k.topo.SocketOf(c)
		if !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	return out
}

// DropReplica tears down p's replica on node (a policy "deprecate"
// decision). It reports whether a replica was actually dropped. Dropping
// the primary's node is a no-op.
func (k *Kernel) DropReplica(p *Process, node numa.NodeID) (bool, error) {
	mask := p.space.Mask()
	if !slices.Contains(mask, node) {
		return false, nil
	}
	keep := slices.DeleteFunc(slices.Clone(mask), func(n numa.NodeID) bool { return n == node })
	if err := p.space.SetMask(p.opCtx(), keep); err != nil {
		return false, err
	}
	p.requestedMask = slices.Clone(p.space.Mask())
	k.reloadContexts(p)
	if len(p.cores) > 0 {
		k.machine.AddCycles(k.callCore(p, 0, false), drainMeterCycles(p))
	}
	return true, nil
}
