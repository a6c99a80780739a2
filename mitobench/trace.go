package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime/metrics"
	"time"

	mitosis "github.com/mitosis-project/mitosis-sim"
	"github.com/mitosis-project/mitosis-sim/internal/fault"
	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/tier"
	"github.com/mitosis-project/mitosis-sim/internal/tlb"
	"github.com/mitosis-project/mitosis-sim/internal/workloads"
)

// Span names: the timed public calls, one per layer boundary.
const (
	spanBoot       = "facade.boot_ns"
	spanReset      = "facade.reset_ns"
	spanSetup      = "workloads.setup_ns"
	spanRound      = "workloads.round_ns"
	spanFault      = "kernel.fault_ns"
	spanSpawn      = "kernel.spawn_ns"
	spanExit       = "kernel.exit_ns"
	spanAllocFree  = "mem.alloc_free_ns"
	spanReplicate  = "core.replicate_ns"
	spanPolicyTick = "kernel.policy_tick_ns"
	spanTierTick   = "kernel.tier_tick_ns"
	spanFaultTick  = "kernel.fault_tick_ns"
)

// spanNames is the report order of the timed spans.
var spanNames = []string{
	spanBoot, spanReset, spanSetup, spanRound, spanFault, spanSpawn, spanExit,
	spanAllocFree, spanReplicate, spanPolicyTick, spanTierTick, spanFaultTick,
}

// Self-time buckets of the traced wall time.
const (
	selfAccess     = "access"
	selfFault      = "fault"
	selfPolicyTick = "policy_tick"
	selfTierTick   = "tier_tick"
	selfFaultTick  = "fault_tick"
	selfSetup      = "setup"
	selfReset      = "reset"
	selfOther      = "other"
)

var selfNames = []string{selfAccess, selfFault, selfPolicyTick, selfTierTick, selfFaultTick, selfSetup, selfReset, selfOther}

// allocProbePairs is how many AllocData+Free pairs the post-run allocator
// probe times on each DRAM node.
const allocProbePairs = 256

// tracer collects the spans of traced runs. Only the goroutine driving the
// run touches it; faultTimer hands it the fault spans at quiescent points.
type tracer struct {
	spans map[string]*reservoir // ns per call
	self  map[string]int64      // ns per self-time bucket
	calls int
	wall  int64 // ns of traced calls, probes and reset included
	// callNS is each call's wall time up to its complete result — what the
	// untraced call measures.
	callNS []float64

	// Measured phases only: simulated ops, the rounds' self time, heap
	// allocations, and the walker and TLB counters.
	measuredOps      uint64
	measuredAccessNS int64
	measuredAllocs   uint64
	walks, walkMem   uint64
	walkLLC, walkRem uint64
	tlb              struct{ lookups, l1, l2, misses uint64 }

	tierMove  uint64 // pages moved by tier engines
	tierTick  int    // tier ticks that ran
	faultInj  int    // fault events injected
	faultRec  int    // rebuilds + discards
	ptRebuild int    // page-table rebuilds
	faultKil  int    // fault-engine kills
}

func newTracer() *tracer {
	t := &tracer{spans: make(map[string]*reservoir), self: make(map[string]int64)}
	for _, n := range spanNames {
		t.spans[n] = &reservoir{}
	}
	return t
}

// add records one span that started at start and returns its end time.
func (t *tracer) add(name string, start time.Time) time.Time {
	end := time.Now()
	t.spans[name].add(end.Sub(start).Nanoseconds())
	return end
}

// addTLB adds a core's TLB counters.
func (t *tracer) addTLB(st tlb.Stats) {
	t.tlb.lookups += st.Lookups
	t.tlb.l1 += st.L1Hits
	t.tlb.l2 += st.L2Hits
	t.tlb.misses += st.Misses
}

// faultTimer sits between the machine and the kernel's fault entry point
// and times every demand fault. The machine calls it from the goroutine
// driving the faulting core, and each core is driven by one goroutine at a
// time, so the per-core slots need no lock; the coordinating goroutine reads
// them only at quiescent points.
type faultTimer struct {
	k     *kernel.Kernel
	spans []reservoir // per core
	total []int64     // per core, ns
}

func newFaultTimer(k *kernel.Kernel) *faultTimer {
	n := k.Topology().Cores()
	return &faultTimer{k: k, spans: make([]reservoir, n), total: make([]int64, n)}
}

// HandleFault implements hw.FaultHandler.
func (f *faultTimer) HandleFault(core numa.CoreID, va pt.VirtAddr, write bool) (numa.Cycles, error) {
	start := time.Now()
	cy, err := f.k.HandleFault(core, va, write)
	d := time.Since(start).Nanoseconds()
	f.spans[core].add(d)
	f.total[core] += d
	return cy, err
}

// sum is the fault time of every core so far. Call it only at quiescence.
func (f *faultTimer) sum() int64 {
	var s int64
	for _, v := range f.total {
		s += v
	}
	return s
}

// drain hands the recorded fault spans to the tracer. The per-core samples
// join the tracer's reservoir; the count stays exact.
func (f *faultTimer) drain(t *tracer) {
	all := t.spans[spanFault]
	for c := range f.spans {
		n := all.n
		for _, v := range f.spans[c].s {
			all.add(v)
		}
		all.n = n + f.spans[c].n
	}
	t.self[selfFault] += f.sum()
}

// allocProbe times AllocData+Free pairs on every DRAM node of the machine
// as the run left it: fragmented and, for churn, under pressure. A node that
// cannot allocate is skipped.
func allocProbe(t *tracer, k *kernel.Kernel) {
	pm := k.Mem()
	for n := 0; n < k.Topology().DRAMNodes(); n++ {
		for i := 0; i < allocProbePairs; i++ {
			start := time.Now()
			f, err := pm.AllocData(numa.NodeID(n))
			if err != nil {
				break
			}
			pm.Free(f)
			t.add(spanAllocFree, start)
		}
	}
}

// heapAllocs reads the cumulative count of heap allocations.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// tracedRun executes sc as mitosis.Run does, but makes the facade's calls
// into the kernel, workloads and engines itself so it can time each one.
// It supports the scenario features the benchmark's workloads use and
// rejects the rest. The caller checks that its result equals mitosis.Run's
// bit for bit, so a drift between the two shows up as a failed run.
func tracedRun(sc mitosis.Scenario, t *tracer) (*mitosis.RunResult, error) {
	callStart := time.Now()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sys := mitosis.NewSystem(sc.Machine)
	t.add(spanBoot, callStart)
	sc.Machine = sys.Config()
	if sc.Seed == 0 {
		sc.Seed = 42
	}
	k := sys.Kernel()
	topo := k.Topology()
	m := k.Machine()
	ft := newFaultTimer(k)
	m.SetFaultHandler(ft)
	rr := &mitosis.RunResult{Scenario: sc, Engine: mitosis.AutoEngine.String(), Hardware: sys.Hardware()}

	if sc.Fragmentation > 0 {
		r := rand.New(rand.NewSource(sc.Seed))
		for n := 0; n < topo.Nodes(); n++ {
			k.Mem().Fragment(numa.NodeID(n), sc.Fragmentation, r)
		}
	}

	type runProc struct {
		spec     mitosis.ProcSpec
		p        *kernel.Process
		env      *workloads.Env
		w        workloads.Workload
		eng      *kernel.PolicyEngine
		teng     *kernel.TierEngine
		tickBase int
	}
	var procs []*runProc
	for _, ps := range sc.Processes {
		if err := supported(ps); err != nil {
			return nil, err
		}
		w := workloads.ByName(ps.Workload.Name, ps.Workload.Suite)
		if ps.Workload.Scale != 0 && ps.Workload.Scale != 1.0 {
			w = workloads.Scale(w, ps.Workload.Scale)
		}
		p, err := spawn(k, ps, w.DataLocality(), t)
		if err != nil {
			return nil, fmt.Errorf("process %q: %w", ps.Name, err)
		}
		rp := &runProc{spec: ps, p: p, w: w}
		wantsMask := ps.Replication.All || len(ps.Replication.Nodes) > 0
		if ps.Replication.Eager && wantsMask {
			if err := replicate(sys, p, ps.Replication, t); err != nil {
				return nil, fmt.Errorf("process %q: eager replication: %w", ps.Name, err)
			}
		}
		rp.env = workloads.NewEnv(k, p, k.THP(), sc.Seed)
		start := time.Now()
		if err := w.Setup(rp.env); err != nil {
			return nil, fmt.Errorf("process %q: setting up %s: %w", ps.Name, w.Name(), err)
		}
		t.add(spanSetup, start)
		if !ps.Replication.Eager && wantsMask {
			if err := replicate(sys, p, ps.Replication, t); err != nil {
				return nil, fmt.Errorf("process %q: replication: %w", ps.Name, err)
			}
		}
		if name := ps.Policy.Name; name != "" && name != "none" {
			pol, err := k.NewPolicy(name)
			if err != nil {
				return nil, fmt.Errorf("process %q: %w", ps.Name, err)
			}
			rp.eng = k.AttachPolicy(p, pol, kernel.PolicyEngineConfig{StepPages: ps.Policy.StepPages})
		}
		if pn := ps.Tiering.Policy; pn != "" && pn != "none" {
			pol, err := tier.NewPolicy(pn)
			if err != nil {
				return nil, fmt.Errorf("process %q: %w", ps.Name, err)
			}
			rp.teng = k.AttachTierPolicy(p, pol, kernel.TierEngineConfig{
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
	var fe *kernel.FaultEngine
	plan, err := fault.ParsePlan(sc.Faults)
	if err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	if !plan.Empty() {
		kprocs := make([]*kernel.Process, len(procs))
		names := make([]string, len(procs))
		for i, rp := range procs {
			kprocs[i], names[i] = rp.p, rp.spec.Name
		}
		fe = k.AttachFaultEngine(plan, kprocs, names)
	}
	setupFaults := ft.sum()
	t.self[selfSetup] += time.Since(callStart).Nanoseconds() - setupFaults

	faultBase := 0
	for pidx, rp := range procs {
		if fe != nil {
			if _, dead := fe.Killed(pidx); dead {
				continue
			}
		}
		for pi, ph := range rp.spec.Phases {
			phaseName := ph.Name
			if phaseName == "" {
				phaseName = fmt.Sprintf("phase%d", pi+1)
			}
			res := mitosis.PhaseResult{Process: rp.spec.Name, Phase: phaseName, Warmup: ph.Warmup}
			if ph.Ops > 0 {
				tk := &tracedTicker{
					t: t, engine: rp.eng, tier: rp.teng, fault: fe, p: rp.p,
					base: rp.tickBase, faultBase: faultBase,
					policyEvery: rp.spec.Policy.TickEvery, tierEvery: rp.spec.Tiering.TickEvery,
				}
				faultsBefore := ft.sum()
				allocsBefore := heapAllocs()
				wres, err := workloads.RunWith(rp.env, rp.w, ph.Ops, workloads.EngineConfig{Ticker: tk, TickEvery: 1})
				allocs := heapAllocs() - allocsBefore
				killed := err != nil && errors.Is(err, kernel.ErrProcessKilled)
				if err != nil && !killed {
					return nil, fmt.Errorf("process %q: phase %q: %w", rp.spec.Name, phaseName, err)
				}
				rounds := rounds(ph.Ops)
				rp.tickBase += rounds
				faultBase += rounds
				phaseFaults := ft.sum() - faultsBefore
				t.self[selfAccess] += max(0, tk.roundNS-phaseFaults)
				if wres != nil {
					res.Counters = countersOf(wres)
					res.PerSocket = socketCountersOf(m, topo)
					if !ph.Warmup {
						t.measuredOps += wres.Ops
						t.measuredAccessNS += max(0, tk.roundNS-phaseFaults)
						t.measuredAllocs += allocs
						t.walks += wres.Walks
						t.walkMem += wres.WalkMemAccesses
						t.walkLLC += wres.WalkLLCHits
						t.walkRem += wres.RemoteWalkAccesses
						for _, c := range rp.p.Cores() {
							t.addTLB(m.TLBStats(c))
						}
					}
				}
				if killed {
					res.Killed = true
					k.DestroyProcess(rp.p)
					rr.Phases = append(rr.Phases, res)
					break
				}
			}
			for _, n := range rp.p.ReplicaNodes() {
				res.ReplicaNodes = append(res.ReplicaNodes, int(n))
			}
			rr.Phases = append(rr.Phases, res)
		}
	}

	for _, rp := range procs {
		if rp.eng == nil {
			continue
		}
		out := mitosis.PolicyOutcome{
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
		out := tierOutcomeOf(rp.spec.Name, rp.teng)
		rr.Tiering = append(rr.Tiering, out)
		t.tierMove += out.PromotedPages + out.DemotedPages
	}
	if fe != nil {
		rr.Faults = faultOutcomeOf(sc.Faults, fe)
		t.faultInj += rr.Faults.Injected
		t.faultRec += rr.Faults.PTRebuilds + rr.Faults.DataDiscards
		t.ptRebuild += rr.Faults.PTRebuilds
		t.faultKil += rr.Faults.SigbusKills + rr.Faults.OOMKills
	}
	rr.ReplicaPTPages = k.Backend().Stats.ReplicaPTPages
	ft.drain(t)
	t.calls++
	t.callNS = append(t.callNS, float64(time.Since(callStart).Nanoseconds()))

	// Host-side probes after the result is complete: the allocator on the
	// machine the run left behind, then the reset pooled sweeps take.
	allocProbe(t, k)
	start := time.Now()
	sys.Reset()
	end := t.add(spanReset, start)
	t.self[selfReset] += end.Sub(start).Nanoseconds()
	t.wall += end.Sub(callStart).Nanoseconds()
	return rr, nil
}

// supported rejects the scenario features tracedRun does not reproduce.
func supported(ps mitosis.ProcSpec) error {
	if ps.VM != nil {
		return fmt.Errorf("process %q: traced run does not support VMs", ps.Name)
	}
	for _, ph := range ps.Phases {
		if ph.MigrateTo != nil || ph.MovePT != nil || ph.AutoNUMA || ph.IncludeSetup {
			return fmt.Errorf("process %q: traced run supports only plain warm-up and measured phases", ps.Name)
		}
	}
	return nil
}

// spawn creates and schedules the process as the facade does: data and
// page-table placement from the spec, the first free core of each listed
// socket.
func spawn(k *kernel.Kernel, ps mitosis.ProcSpec, dataLocality float64, t *tracer) (*kernel.Process, error) {
	start := time.Now()
	defer t.add(spanSpawn, start)
	topo := k.Topology()
	pl := ps.Placement
	sockets := pl.Sockets
	if len(sockets) == 0 {
		for s := 0; s < topo.Sockets(); s++ {
			sockets = append(sockets, s)
		}
	}
	opts := kernel.ProcessOpts{Name: ps.Name, Home: numa.SocketID(sockets[0]), DataLocality: dataLocality}
	switch pl.Data {
	case mitosis.PlaceInterleave:
		opts.DataPolicy = kernel.Interleave
	case mitosis.PlaceBind:
		opts.DataPolicy = kernel.Bind
		opts.BindNode = numa.NodeID(pl.DataNode)
	default:
		opts.DataPolicy = kernel.FirstTouch
	}
	if pl.PageTables == mitosis.PlaceFixed {
		opts.PTPolicy = kernel.PTFixed
		opts.PTNode = numa.NodeID(pl.PTNode)
	}
	p, err := k.CreateProcess(opts)
	if err != nil {
		return nil, err
	}
	perSocket := max(pl.CoresPerSocket, 1)
	var cores []numa.CoreID
	for _, s := range sockets {
		free := 0
		for _, c := range topo.CoresOf(numa.SocketID(s)) {
			if free < perSocket && k.CurrentOn(c) == nil {
				cores = append(cores, c)
				free++
			}
		}
		if free < perSocket {
			return nil, fmt.Errorf("socket %d has only %d free cores, need %d", s, free, perSocket)
		}
	}
	return p, k.RunOn(p, cores)
}

// replicate applies the spec's static replication mask, as the facade's
// Proc.ReplicatePageTables and Proc.ReplicateOn do.
func replicate(sys *mitosis.System, p *kernel.Process, r mitosis.ReplicationSpec, t *tracer) error {
	sys.Quiesce()
	var nodes []numa.NodeID
	if r.All {
		for n := 0; n < sys.Kernel().Topology().DRAMNodes(); n++ {
			nodes = append(nodes, numa.NodeID(n))
		}
	} else {
		for _, n := range r.Nodes {
			nodes = append(nodes, numa.NodeID(n))
		}
	}
	start := time.Now()
	defer t.add(spanReplicate, start)
	return p.SetReplicationMask(nodes)
}

// tracedTicker is the round-barrier ticker of a traced phase. It runs every
// round: the time since the previous barrier is one round, and each engine
// tick is timed on its own. The engines tick on exactly the rounds the
// facade's ticker drives them on.
type tracedTicker struct {
	t      *tracer
	engine *kernel.PolicyEngine
	tier   *kernel.TierEngine
	fault  *kernel.FaultEngine
	p      *kernel.Process
	// base is the process's rounds in earlier phases and faultBase every
	// process's: the policy and fault engines' cumulative clocks.
	base, faultBase int
	// policyEvery and tierEvery are the engines' tick periods in rounds.
	policyEvery, tierEvery int
	// last is when the previous barrier ended; roundNS sums the rounds.
	last    time.Time
	roundNS int64
}

// RunStart implements the engine's optional run-start hook.
func (tk *tracedTicker) RunStart() {
	if tk.engine != nil {
		tk.engine.RunStart()
	}
	tk.last = time.Now()
}

// RunEnd implements the engine's optional run-end hook.
func (tk *tracedTicker) RunEnd() {
	if tk.engine != nil {
		tk.engine.RunEnd()
	}
}

// Tick implements workloads.RoundTicker.
func (tk *tracedTicker) Tick(local int) error {
	now := tk.t.add(spanRound, tk.last)
	tk.roundNS += now.Sub(tk.last).Nanoseconds()
	round := local + tk.base
	if tk.fault != nil {
		err := tk.timed(spanFaultTick, selfFaultTick, func() error {
			return tk.fault.Tick(uint64(local+tk.faultBase), tk.p)
		})
		if err != nil {
			return err
		}
	}
	if tk.engine != nil && (tk.policyEvery <= 1 || local%tk.policyEvery == 0) {
		if err := tk.timed(spanPolicyTick, selfPolicyTick, func() error { return tk.engine.Tick(round) }); err != nil {
			return err
		}
	}
	if tk.tier != nil && (tk.tierEvery <= 1 || local%tk.tierEvery == 0) {
		tk.t.tierTick++
		if err := tk.timed(spanTierTick, selfTierTick, func() error { return tk.tier.Tick(round) }); err != nil {
			return err
		}
	}
	tk.last = time.Now()
	return nil
}

func (tk *tracedTicker) timed(span, self string, f func() error) error {
	start := time.Now()
	err := f()
	end := tk.t.add(span, start)
	tk.t.self[self] += end.Sub(start).Nanoseconds()
	return err
}

// countersOf converts an engine result to the facade's counters.
func countersOf(res *workloads.Result) mitosis.Counters {
	return mitosis.Counters{
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

// socketCountersOf snapshots each socket's counters since the phase began.
func socketCountersOf(m *hw.Machine, topo *numa.Topology) []mitosis.SocketCounters {
	out := make([]mitosis.SocketCounters, topo.Sockets())
	for s := range out {
		cs := m.SocketStats(numa.SocketID(s))
		out[s] = mitosis.SocketCounters{
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
func compressTimeline(tl []int) []mitosis.ReplicaTick {
	var out []mitosis.ReplicaTick
	for i, v := range tl {
		if i == 0 || tl[i-1] != v {
			out = append(out, mitosis.ReplicaTick{Round: i + 1, Replicas: v})
		}
	}
	return out
}

// tierOutcomeOf converts a tier engine's state into the public record.
func tierOutcomeOf(process string, e *kernel.TierEngine) mitosis.TierOutcome {
	promoted, demoted, ptMoves := e.Moved()
	out := mitosis.TierOutcome{
		Process:       process,
		Policy:        e.Policy().Name(),
		PromotedPages: promoted,
		DemotedPages:  demoted,
		PTMoves:       ptMoves,
	}
	for _, rec := range e.ActionLog() {
		out.Actions = append(out.Actions, rec.String())
	}
	h := e.Histogram()
	for tk := 0; tk < tier.NumTiers; tk++ {
		if h.Hot[tk] == 0 && h.Cold[tk] == 0 {
			continue
		}
		out.Residency = append(out.Residency, mitosis.TierCensus{
			Tier:      numa.MemTier(tk).String(),
			HotPages:  h.Hot[tk],
			ColdPages: h.Cold[tk],
		})
	}
	return out
}

// faultOutcomeOf converts the fault engine's record to the public outcome.
func faultOutcomeOf(plan string, fe *kernel.FaultEngine) *mitosis.FaultOutcome {
	st := fe.Stats()
	out := &mitosis.FaultOutcome{
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
		ph := mitosis.ProcHealth{Process: h.Name, State: h.State}
		for _, n := range h.Nodes {
			ph.Nodes = append(ph.Nodes, int(n))
		}
		out.Health = append(out.Health, ph)
		if reason, dead := fe.Killed(h.Proc); dead {
			out.Killed = append(out.Killed, mitosis.KilledProc{Process: h.Name, Reason: reason})
		}
	}
	return out
}
