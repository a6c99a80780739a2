package mitosis

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/mitosis-project/mitosis-sim/internal/fault"
	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/tier"
	"github.com/mitosis-project/mitosis-sim/internal/workloads"
)

// EngineMode names the execution engine a RunResult was produced by. The
// simulator has one engine, the sequential round loop (DESIGN.md, "The
// execution engine"), so AutoEngine is the only mode.
type EngineMode int

const (
	// AutoEngine is the execution engine's mode name.
	AutoEngine EngineMode = iota
)

// String returns "auto".
func (m EngineMode) String() string { return "auto" }

// RunOpt tunes one Run invocation (host-side knobs only; nothing an
// option changes may alter the counters except Chunk, which is part of
// the modeled coherence latency).
type RunOpt func(*runConfig)

type runConfig struct {
	chunk int
	obs   Observer
}

// WithChunk sets the engine round length in ops per core (default 32).
// Results are only comparable between runs with equal chunks.
func WithChunk(n int) RunOpt { return func(c *runConfig) { c.chunk = n } }

// WithObserver streams round-barrier telemetry to o during the run. The
// observer fires every Policy.TickEvery rounds of a process's phase when
// the process has no tiering policy and the scenario no fault plan, so a
// phase of r rounds yields r/TickEvery events (rounded down). With a
// tiering policy or a fault plan it fires at every round barrier, since
// those engines tick every round. A phase of n ops per thread runs
// ceil(n/chunk) rounds.
func WithObserver(o Observer) RunOpt { return func(c *runConfig) { c.obs = o } }

// SocketTick is one socket's counter deltas since the previous round-
// barrier tick.
type SocketTick struct {
	Socket           int
	Ops              uint64
	Walks            uint64
	Cycles           uint64
	WalkCycles       uint64
	RemoteWalkCycles uint64
	HasReplica       bool
}

// TickEvent is the telemetry of one engine round barrier. WithObserver
// says at which barriers events fire; the Sockets deltas cover every round
// since the process's previous event in the same phase.
type TickEvent struct {
	Process string
	Phase   string
	// Round is the 1-based engine round the barrier closed.
	Round int
	// Replicas is the number of nodes holding a copy of the page-table
	// (primary included) after this tick's policy actions.
	Replicas int
	// InFlight is the number of incremental background replications in
	// progress.
	InFlight int
	Sockets  []SocketTick
}

// Observer receives round-barrier telemetry from Run. Callbacks run at
// quiescent points on the coordinating goroutine; they must not mutate
// the system (that is the policy engine's job) or the determinism
// contract breaks.
type Observer interface {
	RoundTick(ev TickEvent)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(ev TickEvent)

// RoundTick implements Observer.
func (f ObserverFunc) RoundTick(ev TickEvent) { f(ev) }

// Counters are the hardware counters of one measured phase, aggregated
// over the process's cores. All fields are exact integers so results can
// be compared bit-for-bit across runs and replays.
type Counters struct {
	Ops   uint64 `json:"ops"`
	Walks uint64 `json:"walks"`
	// Cycles is the makespan: the maximum per-core cycle count.
	Cycles uint64 `json:"cycles"`
	// TotalCycles sums cycles across cores.
	TotalCycles uint64 `json:"total_cycles"`
	// WalkCycles is the summed page-walk cycles.
	WalkCycles uint64 `json:"walk_cycles"`
	// RemoteWalkCycles is the raw DRAM latency of remote page-table reads
	// (pre overlap scaling) — the locality signal policies tick on.
	RemoteWalkCycles uint64 `json:"remote_walk_cycles"`
	// GuestWalkCycles / NestedWalkCycles split two-dimensional walk reads
	// by dimension for virtualized processes (raw, pre overlap scaling);
	// zero for native runs.
	GuestWalkCycles  uint64 `json:"guest_walk_cycles,omitempty"`
	NestedWalkCycles uint64 `json:"nested_walk_cycles,omitempty"`
	// WalkMemAccesses / WalkRemoteAccesses / WalkLLCHits break down where
	// the page walker's reads were served.
	WalkMemAccesses    uint64 `json:"walk_mem_accesses"`
	WalkRemoteAccesses uint64 `json:"walk_remote_accesses"`
	WalkLLCHits        uint64 `json:"walk_llc_hits"`
	// TierWalkAccesses / TierWalkCycles / TierDataAccesses count the walk
	// and data reads served by slow-tier (CXL/NVM) nodes — a subset of the
	// remote counters above. Always zero on flat machines, so existing
	// records are unchanged.
	TierWalkAccesses uint64 `json:"tier_walk_accesses,omitempty"`
	TierWalkCycles   uint64 `json:"tier_walk_cycles,omitempty"`
	TierDataAccesses uint64 `json:"tier_data_accesses,omitempty"`
}

// WalkCycleFraction returns walk cycles over total cycles — the hashed
// fraction of the paper's runtime bars.
func (c Counters) WalkCycleFraction() float64 {
	if c.TotalCycles == 0 {
		return 0
	}
	return float64(c.WalkCycles) / float64(c.TotalCycles)
}

// RemoteWalkCycleFraction returns remote page-table DRAM cycles over
// total cycles — the locality metric replication policies optimize.
func (c Counters) RemoteWalkCycleFraction() float64 {
	if c.TotalCycles == 0 {
		return 0
	}
	return float64(c.RemoteWalkCycles) / float64(c.TotalCycles)
}

// RemoteWalkFraction returns the fraction of page-table DRAM reads that
// crossed the interconnect.
func (c Counters) RemoteWalkFraction() float64 {
	if c.WalkMemAccesses == 0 {
		return 0
	}
	return float64(c.WalkRemoteAccesses) / float64(c.WalkMemAccesses)
}

// TierWalkFraction returns the fraction of page-table memory reads served
// by slow-tier (CXL/NVM) nodes — how much of the walk path is stranded
// off DRAM. Zero on flat machines.
func (c Counters) TierWalkFraction() float64 {
	if c.WalkMemAccesses == 0 {
		return 0
	}
	return float64(c.TierWalkAccesses) / float64(c.WalkMemAccesses)
}

// SocketCounters are one socket's counters over a measured phase.
type SocketCounters struct {
	Socket             int    `json:"socket"`
	Ops                uint64 `json:"ops"`
	Walks              uint64 `json:"walks"`
	Cycles             uint64 `json:"cycles"`
	WalkCycles         uint64 `json:"walk_cycles"`
	RemoteWalkCycles   uint64 `json:"remote_walk_cycles"`
	GuestWalkCycles    uint64 `json:"guest_walk_cycles,omitempty"`
	NestedWalkCycles   uint64 `json:"nested_walk_cycles,omitempty"`
	WalkMemAccesses    uint64 `json:"walk_mem_accesses"`
	WalkRemoteAccesses uint64 `json:"walk_remote_accesses"`
	DataMemAccesses    uint64 `json:"data_mem_accesses"`
	DataRemoteAccesses uint64 `json:"data_remote_accesses"`
	// WalkTierAccesses / DataTierAccesses split the remote counters by
	// destination medium; zero on flat machines.
	WalkTierAccesses uint64 `json:"walk_tier_accesses,omitempty"`
	DataTierAccesses uint64 `json:"data_tier_accesses,omitempty"`
}

// PhaseResult is the outcome of one phase of one process.
type PhaseResult struct {
	Process string `json:"process"`
	Phase   string `json:"phase"`
	Warmup  bool   `json:"warmup,omitempty"`
	// Counters aggregates the process's cores over the phase (zero for
	// action-only phases).
	Counters Counters `json:"counters"`
	// PerSocket breaks the phase down by socket (the Figure 4 view).
	PerSocket []SocketCounters `json:"per_socket,omitempty"`
	// ReplicaNodes lists the nodes holding a page-table copy after the
	// phase (primary included once replicated).
	ReplicaNodes []int `json:"replica_nodes,omitempty"`
	// Killed marks a phase fault recovery aborted by killing the process
	// (SIGBUS on an unrecoverable page-table MCE, or an OOM-kill). The
	// counters cover the rounds completed before the kill; the process's
	// remaining phases are skipped.
	Killed bool `json:"killed,omitempty"`
}

// ReplicaTick is one change point of a replica-count timeline: from Round
// on, Replicas nodes held a copy of the table.
type ReplicaTick struct {
	Round    int `json:"round"`
	Replicas int `json:"replicas"`
}

// PolicyOutcome is the runtime policy engine's record for one process.
type PolicyOutcome struct {
	Process string `json:"process"`
	Policy  string `json:"policy"`
	// Actions is the applied action log ("r12:replicate(node 1)", ...),
	// identical across runs and replays.
	Actions []string `json:"actions,omitempty"`
	// ReplicaTimeline is the change-point-compressed replica count per
	// policy tick.
	ReplicaTimeline []ReplicaTick `json:"replica_timeline,omitempty"`
	// BackgroundCycles is the copy work background replication did off
	// the critical path.
	BackgroundCycles uint64 `json:"background_cycles,omitempty"`
}

// KilledProc records one process the fault engine killed and why
// ("sigbus" or "oom").
type KilledProc struct {
	Process string `json:"process"`
	Reason  string `json:"reason"`
}

// ProcHealth is one process's replica redundancy state after the run:
// "replicated", "degraded", "lost", "unreplicated" or "killed:<reason>".
type ProcHealth struct {
	Process string `json:"process"`
	State   string `json:"state"`
	// Nodes lists the nodes holding a copy of the table (primary
	// included); empty for killed processes.
	Nodes []int `json:"nodes,omitempty"`
}

// FaultOutcome is the fault engine's record for a run: what the plan
// injected, how the machine recovered, and who survived. Deterministic
// across runs and sweep worker counts.
type FaultOutcome struct {
	// Plan echoes the scenario's fault DSL.
	Plan string `json:"plan"`
	// Injected counts plan events fired; Pending counts events scheduled
	// past the last barrier the run reached.
	Injected int `json:"injected"`
	Pending  int `json:"pending,omitempty"`
	// MCEs counts simulated machine-check exceptions (poisoned frames).
	MCEs int `json:"mces,omitempty"`
	// PTRebuilds counts page-table copies rebuilt from a surviving
	// replica; DataDiscards counts poisoned data pages discarded.
	PTRebuilds   int `json:"pt_rebuilds,omitempty"`
	DataDiscards int `json:"data_discards,omitempty"`
	// SigbusKills / OOMKills count process deaths by cause.
	SigbusKills int `json:"sigbus_kills,omitempty"`
	OOMKills    int `json:"oom_kills,omitempty"`
	// NodesOfflined counts hot-removes; EvacuatedPages the data pages
	// migrated off offlined nodes.
	NodesOfflined  int `json:"nodes_offlined,omitempty"`
	EvacuatedPages int `json:"evacuated_pages,omitempty"`
	// RetiredFrames counts frames permanently retired from the
	// allocator; ReclaimedFrames the frames the pressure ladder freed;
	// AbortedReplications the in-flight incremental replications it and
	// node offlining aborted.
	RetiredFrames       int    `json:"retired_frames,omitempty"`
	ReclaimedFrames     uint64 `json:"reclaimed_frames,omitempty"`
	AbortedReplications int    `json:"aborted_replications,omitempty"`
	// RecoveryCycles is the total recovery work, attributed to the
	// victim processes' cores.
	RecoveryCycles uint64 `json:"recovery_cycles,omitempty"`
	// Actions is the deterministic recovery log ("r12:node 1 offline",
	// ...), identical across runs and replays.
	Actions []string `json:"actions,omitempty"`
	// Killed lists the processes the engine killed, in kill order.
	Killed []KilledProc `json:"killed,omitempty"`
	// Health is every process's replica redundancy state after the run.
	Health []ProcHealth `json:"health,omitempty"`
}

// RunResult is a scenario run's complete record: the exact (normalized)
// spec that produced it, per-phase counters, and policy telemetry. It
// serializes; replaying Result.Scenario with the same Chunk reproduces
// every counter bit-for-bit. Engine is always "auto" (AutoEngine); older
// records may say "sequential" or "parallel", which produced the same
// counters, so replay ignores it.
type RunResult struct {
	Scenario Scenario `json:"scenario"`
	Engine   string   `json:"engine"`
	// Chunk is the engine round length the run used (0 = the default);
	// it is part of the modeled coherence latency, so replays must pass
	// it back via WithChunk.
	Chunk int `json:"chunk,omitempty"`
	// Hardware echoes the translation-backend geometry the run executed
	// on, so records are self-describing. Informational: replay
	// comparison ignores it (old records carry none).
	Hardware HardwareInfo    `json:"hardware,omitzero"`
	Phases   []PhaseResult   `json:"phases"`
	Policies []PolicyOutcome `json:"policies,omitempty"`
	// Tiering records each tiering engine's outcome (empty when no process
	// ran a tier policy, so flat records are unchanged).
	Tiering []TierOutcome `json:"tiering,omitempty"`
	// Faults records the fault engine's outcome (nil when the scenario
	// schedules no faults, so existing records are unchanged).
	Faults *FaultOutcome `json:"faults,omitempty"`
	// ReplicaPTPages counts the replica page-table pages created over the
	// whole run — the memory replication spent.
	ReplicaPTPages uint64 `json:"replica_pt_pages"`
}

// Measured returns the last non-warmup phase of the named process (the
// first process when name is empty); nil if there is none.
func (r *RunResult) Measured(process string) *PhaseResult {
	if process == "" && len(r.Scenario.Processes) > 0 {
		process = r.Scenario.Processes[0].Name
	}
	var found *PhaseResult
	for i := range r.Phases {
		ph := &r.Phases[i]
		if ph.Process == process && !ph.Warmup {
			found = ph
		}
	}
	return found
}

// Run boots a fresh machine from the scenario's Machine section and
// executes the scenario on it. This is the reproducible entry point: the
// same spec and chunk always produce the same RunResult.
func Run(sc Scenario, opts ...RunOpt) (*RunResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return NewSystem(sc.Machine).Run(sc, opts...)
}

// Run executes the scenario on this system. The scenario's Machine
// section must be zero (inherit this machine) or describe it exactly;
// otherwise the run would not be reproducible from its own record. The
// system should be freshly booted for reproducible runs — prior
// allocations shift placement.
func (s *System) Run(sc Scenario, opts ...RunOpt) (*RunResult, error) {
	rc := runConfig{}
	for _, o := range opts {
		o(&rc)
	}
	if sc.Machine == (SystemConfig{}) {
		sc.Machine = s.cfg
	} else if sc.Machine.normalize() != s.cfg {
		return nil, fmt.Errorf("mitosis: scenario %q wants machine %+v but this system is %+v; use mitosis.Run or boot a matching system",
			sc.Name, sc.Machine.normalize(), s.cfg)
	}
	sc.Machine = s.cfg
	if sc.Seed == 0 {
		sc.Seed = 42
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}

	k := s.k
	topo := k.Topology()
	m := k.Machine()
	rr := &RunResult{Scenario: sc, Engine: AutoEngine.String(), Chunk: rc.chunk, Hardware: s.Hardware()}

	if sc.Fragmentation > 0 {
		r := rand.New(rand.NewSource(sc.Seed))
		for n := 0; n < topo.Nodes(); n++ {
			k.Mem().Fragment(numa.NodeID(n), sc.Fragmentation, r)
		}
	}

	type runProc struct {
		spec ProcSpec
		pr   *Proc
		env  *workloads.Env
		w    workloads.Workload
		eng  *kernel.PolicyEngine
		teng *kernel.TierEngine
		// tickBase offsets the engine's per-phase round counter so the
		// policy's action log, the replica timeline and observer events
		// all share one cumulative round clock across the process's
		// phases.
		tickBase int
	}
	var procs []*runProc
	for i := range sc.Processes {
		ps := sc.Processes[i]
		w, err := ps.Workload.resolve()
		if err != nil {
			return nil, fmt.Errorf("mitosis: process %q: %w", ps.Name, err)
		}
		pr, err := s.spawn(ps, w.DataLocality())
		if err != nil {
			return nil, fmt.Errorf("mitosis: process %q: %w", ps.Name, err)
		}
		rp := &runProc{spec: ps, pr: pr, w: w}
		if ps.Replication.Eager && ps.Replication.wants() {
			if err := s.applyMask(pr, ps.Replication); err != nil {
				return nil, fmt.Errorf("mitosis: process %q: eager replication: %w", ps.Name, err)
			}
		}
		rp.env = workloads.NewEnv(k, pr.p, k.THP(), sc.Seed)
		if err := w.Setup(rp.env); err != nil {
			return nil, fmt.Errorf("mitosis: process %q: setting up %s: %w", ps.Name, w.Name(), err)
		}
		if !ps.Replication.Eager && ps.Replication.wants() {
			if err := s.applyMask(pr, ps.Replication); err != nil {
				return nil, fmt.Errorf("mitosis: process %q: replication: %w", ps.Name, err)
			}
		}
		if ps.VM != nil && ps.VM.Replication != "" && ps.VM.Replication != VMReplicationNone {
			if err := k.ReplicateVM(pr.p, ps.VM.Replication); err != nil {
				return nil, fmt.Errorf("mitosis: process %q: vm replication: %w", ps.Name, err)
			}
		}
		if name := ps.Policy.Name; name != "" && name != "none" {
			pol, err := k.NewPolicy(name)
			if err != nil {
				return nil, fmt.Errorf("mitosis: process %q: %w", ps.Name, err)
			}
			rp.eng = k.AttachPolicy(pr.p, pol, kernel.PolicyEngineConfig{StepPages: ps.Policy.StepPages})
		}
		if ps.Tiering.wants() {
			pol, err := tier.NewPolicy(ps.Tiering.Policy)
			if err != nil {
				return nil, fmt.Errorf("mitosis: process %q: %w", ps.Name, err)
			}
			rp.teng = k.AttachTierPolicy(pr.p, pol, kernel.TierEngineConfig{
				StepPages: ps.Tiering.StepPages,
				Tracker: tier.TrackerConfig{
					HotThreshold: ps.Tiering.HotThreshold,
					ColdTicks:    ps.Tiering.ColdTicks,
				},
			})
		}
		procs = append(procs, rp)
	}
	for _, n := range sc.Interference {
		k.SetInterference(numa.NodeID(n), true)
	}

	// The fault engine addresses processes by spawn order and fires on a
	// run-global cumulative round clock that advances across all
	// processes and phases in execution order — the key to bit-identical
	// injection regardless of sweep worker count.
	var fe *kernel.FaultEngine
	faultPlan, err := fault.ParsePlan(sc.Faults)
	if err != nil {
		return nil, fmt.Errorf("mitosis: faults: %w", err)
	}
	if !faultPlan.Empty() {
		kprocs := make([]*kernel.Process, len(procs))
		names := make([]string, len(procs))
		for i, rp := range procs {
			kprocs[i] = rp.pr.p
			names[i] = rp.spec.Name
		}
		fe = k.AttachFaultEngine(faultPlan, kprocs, names)
	}
	faultBase := 0

	for pidx, rp := range procs {
		if fe != nil {
			if _, dead := fe.Killed(pidx); dead {
				// Killed while idle (by an event fired during another
				// process's phase); its remaining schedule is void.
				continue
			}
		}
		for pi, ph := range rp.spec.Phases {
			phaseName := ph.Name
			if phaseName == "" {
				phaseName = fmt.Sprintf("phase%d", pi+1)
			}
			fail := func(err error) (*RunResult, error) {
				return nil, fmt.Errorf("mitosis: process %q: phase %q: %w", rp.spec.Name, phaseName, err)
			}
			if ph.MigrateTo != nil {
				err := k.MigrateProcess(rp.pr.p, numa.SocketID(*ph.MigrateTo), kernel.MigrateOpts{
					Data:       true,
					PageTables: ph.MigratePT,
				})
				if err != nil {
					return fail(err)
				}
			}
			if ph.MovePT != nil {
				if err := k.MigratePT(rp.pr.p, numa.NodeID(*ph.MovePT), false); err != nil {
					return fail(err)
				}
				// Future page-table allocations also stay on the target.
				rp.pr.p.SetPTPolicy(kernel.PTFixed, numa.NodeID(*ph.MovePT))
			}
			if ph.AutoNUMA {
				k.AutoNUMAScan(rp.pr.p, kernel.DefaultAutoNUMAConfig())
			}
			res := PhaseResult{Process: rp.spec.Name, Phase: phaseName, Warmup: ph.Warmup}
			if ph.Ops > 0 {
				ecfg := workloads.EngineConfig{
					Chunk:     rc.chunk,
					TickEvery: rp.spec.Policy.TickEvery,
				}
				if rp.eng != nil || rp.teng != nil || rc.obs != nil || fe != nil {
					t := &runTicker{
						engine: rp.eng, tier: rp.teng, obs: rc.obs, m: m,
						topo: topo, p: rp.pr.p, process: rp.spec.Name,
						phase: phaseName, base: rp.tickBase,
						fault: fe, faultBase: faultBase,
					}
					if rp.teng != nil || fe != nil {
						// The replication and tiering engines may want
						// different cadences, and the fault engine must see
						// every barrier; run the ticker every round and
						// apply each period on the phase-local round
						// inside it. Without them the engine-level
						// TickEvery governs, exactly as before.
						t.policyEvery = rp.spec.Policy.TickEvery
						t.tierEvery = rp.spec.Tiering.TickEvery
						ecfg.TickEvery = 1
					}
					ecfg.Ticker = t
				}
				var wres *workloads.Result
				var err error
				if ph.IncludeSetup {
					wres, err = workloads.RunKeepStatsWith(rp.env, rp.w, ph.Ops, ecfg)
				} else {
					wres, err = workloads.RunWith(rp.env, rp.w, ph.Ops, ecfg)
				}
				killed := err != nil && errors.Is(err, kernel.ErrProcessKilled)
				if err != nil && !killed {
					return fail(err)
				}
				// Advance the cumulative round clocks by this phase's
				// scheduled rounds (the engine restarts its counter per
				// run; a killed phase still consumed its slot in the
				// plan's clock, keeping later events deterministic).
				rounds := workloads.Rounds(ph.Ops, rc.chunk)
				rp.tickBase += rounds
				faultBase += rounds
				if wres != nil {
					res.Counters = countersOf(wres)
					res.PerSocket = socketCountersOf(m, topo)
				}
				if killed {
					// The victim's partial counters are in; destroy the
					// corpse and void its remaining schedule.
					res.Killed = true
					k.DestroyProcess(rp.pr.p)
					rr.Phases = append(rr.Phases, res)
					break
				}
			}
			for _, n := range rp.pr.p.ReplicaNodes() {
				res.ReplicaNodes = append(res.ReplicaNodes, int(n))
			}
			rr.Phases = append(rr.Phases, res)
		}
	}

	for _, rp := range procs {
		if rp.eng == nil {
			continue
		}
		out := PolicyOutcome{
			Process:          rp.spec.Name,
			Policy:           rp.spec.Policy.Name,
			BackgroundCycles: uint64(rp.eng.BackgroundCycles()),
		}
		for _, rec := range rp.eng.ActionLog() {
			out.Actions = append(out.Actions, rec.String())
		}
		out.ReplicaTimeline = compressTimeline(rp.eng.ReplicaTimeline())
		rr.Policies = append(rr.Policies, out)
	}
	for _, rp := range procs {
		if rp.teng == nil {
			continue
		}
		rr.Tiering = append(rr.Tiering, tierOutcomeOf(rp.spec.Name, rp.teng))
	}
	if fe != nil {
		rr.Faults = faultOutcomeOf(sc.Faults, fe)
	}
	rr.ReplicaPTPages = k.Backend().Stats.ReplicaPTPages
	return rr, nil
}

// faultOutcomeOf converts the fault engine's record to the serializable
// outcome.
func faultOutcomeOf(plan string, fe *kernel.FaultEngine) *FaultOutcome {
	st := fe.Stats()
	out := &FaultOutcome{
		Plan:                plan,
		Injected:            st.Injected,
		Pending:             fe.Pending(),
		MCEs:                st.MCEs,
		PTRebuilds:          st.PTRebuilds,
		DataDiscards:        st.DataDiscards,
		SigbusKills:         st.SigbusKills,
		OOMKills:            st.OOMKills,
		NodesOfflined:       st.NodesOfflined,
		EvacuatedPages:      st.EvacuatedPages,
		RetiredFrames:       st.RetiredFrames,
		ReclaimedFrames:     st.ReclaimedFrames,
		AbortedReplications: st.AbortedReplications,
		RecoveryCycles:      uint64(st.RecoveryCycles),
	}
	for _, rec := range fe.ActionLog() {
		out.Actions = append(out.Actions, rec.String())
	}
	for _, h := range fe.Health() {
		ph := ProcHealth{Process: h.Name, State: h.State}
		for _, n := range h.Nodes {
			ph.Nodes = append(ph.Nodes, int(n))
		}
		out.Health = append(out.Health, ph)
		if reason, dead := fe.Killed(h.Proc); dead {
			out.Killed = append(out.Killed, KilledProc{Process: h.Name, Reason: reason})
		}
	}
	return out
}

// applyMask sets the process's static replication mask per the spec.
func (s *System) applyMask(pr *Proc, r ReplicationSpec) error {
	if r.All {
		return pr.ReplicatePageTables()
	}
	return pr.ReplicateOn(r.Nodes...)
}

// countersOf converts an engine result.
func countersOf(res *workloads.Result) Counters {
	return Counters{
		Ops:                res.Ops,
		Walks:              res.Walks,
		Cycles:             uint64(res.Cycles),
		TotalCycles:        uint64(res.TotalCycles),
		WalkCycles:         uint64(res.WalkCycles),
		RemoteWalkCycles:   uint64(res.RemoteWalkCycles),
		GuestWalkCycles:    uint64(res.GuestWalkCycles),
		NestedWalkCycles:   uint64(res.NestedWalkCycles),
		WalkMemAccesses:    res.WalkMemAccesses,
		WalkRemoteAccesses: res.RemoteWalkAccesses,
		WalkLLCHits:        res.WalkLLCHits,
		TierWalkAccesses:   res.TierWalkAccesses,
		TierWalkCycles:     uint64(res.TierWalkCycles),
		TierDataAccesses:   res.TierDataAccesses,
	}
}

// socketCountersOf snapshots each socket's counters accumulated since the
// phase's reset.
func socketCountersOf(m *hw.Machine, topo *numa.Topology) []SocketCounters {
	out := make([]SocketCounters, topo.Sockets())
	for s := 0; s < topo.Sockets(); s++ {
		cs := m.SocketStats(numa.SocketID(s))
		out[s] = SocketCounters{
			Socket:             s,
			Ops:                cs.Ops,
			Walks:              cs.Walks,
			Cycles:             uint64(cs.Cycles),
			WalkCycles:         uint64(cs.WalkCycles),
			RemoteWalkCycles:   uint64(cs.WalkRemoteCycles),
			GuestWalkCycles:    uint64(cs.GuestWalkCycles),
			NestedWalkCycles:   uint64(cs.NestedWalkCycles),
			WalkMemAccesses:    cs.WalkMemAccesses,
			WalkRemoteAccesses: cs.WalkRemoteAccesses,
			DataMemAccesses:    cs.DataMemAccesses,
			DataRemoteAccesses: cs.DataRemoteAccesses,
			WalkTierAccesses:   cs.WalkTierAccesses,
			DataTierAccesses:   cs.DataTierAccesses,
		}
	}
	return out
}

// compressTimeline reduces a per-tick replica-count series to its change
// points (tick is 1-based).
func compressTimeline(tl []int) []ReplicaTick {
	var out []ReplicaTick
	for i, v := range tl {
		if i == 0 || tl[i-1] != v {
			out = append(out, ReplicaTick{Round: i + 1, Replicas: v})
		}
	}
	return out
}

// runTicker is the engine ticker Run installs: it forwards the round
// barrier to the process's policy engine (if any) and streams telemetry
// to the observer (if any).
type runTicker struct {
	engine         *kernel.PolicyEngine
	tier           *kernel.TierEngine
	obs            Observer
	m              *hw.Machine
	topo           *numa.Topology
	p              *kernel.Process
	process, phase string
	// base is the cumulative round count of the process's earlier phases;
	// it keeps the action log, timeline and observer events on one clock.
	base int
	// fault is the run's fault engine (nil without a plan); faultBase is
	// the run-global cumulative round count across ALL processes'
	// earlier phases — the clock fault events key on.
	fault     *kernel.FaultEngine
	faultBase int
	// policyEvery / tierEvery gate the engines on the phase-local round
	// when the two want different cadences (0 or 1: every invocation — the
	// engine-level TickEvery already set the cadence).
	policyEvery, tierEvery int

	prev []hw.CoreStats
}

// RunStart resynchronizes snapshots at the start of the run.
func (t *runTicker) RunStart() {
	if t.engine != nil {
		t.engine.RunStart()
	}
	if t.obs != nil {
		t.prev = make([]hw.CoreStats, t.topo.Sockets())
		for s := range t.prev {
			t.prev[s] = t.m.SocketStats(numa.SocketID(s))
		}
	}
}

// RunEnd forwards run-end cleanup to the policy engine.
func (t *runTicker) RunEnd() {
	if t.engine != nil {
		t.engine.RunEnd()
	}
}

// Tick implements workloads.RoundTicker. The engine restarts its round
// counter every phase; adding base puts policy logs and observer events
// on one cumulative clock for the whole scenario run.
func (t *runTicker) Tick(round int) error {
	local := round
	round += t.base
	// Faults fire first: the policy and tiering engines tick against the
	// post-recovery machine, observing what the failure left behind.
	if t.fault != nil {
		if err := t.fault.Tick(uint64(local+t.faultBase), t.p); err != nil {
			return err
		}
	}
	if t.engine != nil && (t.policyEvery <= 1 || local%t.policyEvery == 0) {
		if err := t.engine.Tick(round); err != nil {
			return err
		}
	}
	if t.tier != nil && (t.tierEvery <= 1 || local%t.tierEvery == 0) {
		if err := t.tier.Tick(round); err != nil {
			return err
		}
	}
	if t.obs == nil {
		return nil
	}
	replicas := t.p.ReplicaNodes()
	ev := TickEvent{
		Process:  t.process,
		Phase:    t.phase,
		Round:    round,
		Replicas: len(replicas),
		Sockets:  make([]SocketTick, t.topo.Sockets()),
	}
	if t.engine != nil {
		ev.InFlight = t.engine.InFlight()
	}
	for s := 0; s < t.topo.Sockets(); s++ {
		cur := t.m.SocketStats(numa.SocketID(s))
		d := cur.Sub(t.prev[s])
		t.prev[s] = cur
		hasReplica := false
		for _, n := range replicas {
			if t.topo.SocketOfNode(n) == numa.SocketID(s) {
				hasReplica = true
			}
		}
		ev.Sockets[s] = SocketTick{
			Socket:           s,
			Ops:              d.Ops,
			Walks:            d.Walks,
			Cycles:           uint64(d.Cycles),
			WalkCycles:       uint64(d.WalkCycles),
			RemoteWalkCycles: uint64(d.WalkRemoteCycles),
			HasReplica:       hasReplica,
		}
	}
	t.obs.RoundTick(ev)
	return nil
}
