package kernel

import (
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/tier"
)

// TierEngineConfig tunes the tiering engine.
type TierEngineConfig struct {
	// StepPages bounds the 4KB pages the Mover migrates per tick across
	// promotions, demotions and page-table moves together, keeping the
	// per-tick kernel work bounded exactly like incremental replication's
	// step budget. Default 64.
	StepPages int
	// Tracker tunes hotness classification (zero fields take defaults).
	Tracker tier.TrackerConfig
}

// TierActionRecord is one applied tier action tagged with its round — the
// tier analogue of ActionRecord, with the same determinism contract.
type TierActionRecord struct {
	Round  int
	Action tier.Action
}

func (r TierActionRecord) String() string {
	return fmt.Sprintf("r%d:%v", r.Round, r.Action)
}

// TierEngine ticks a tier.Policy for one process at the round barriers of
// the workload engine, implementing the memtier Tracker/Policy/Mover split:
//
//   - Tracker: each tick it walks the process's VMAs in VA order (the same
//     deterministic walk AutoNUMA scans use), consumes the barrier-folded
//     access samples from mem.FrameMeta — reading and clearing them, so a
//     concurrent AutoNUMA phase pre-action and a tier policy split the same
//     sample stream — and feeds them to the tier.Tracker's decayed scores.
//   - Policy: the snapshot (pages in VA order, per-tier hot/cold histogram,
//     page-table placement) goes to Policy.Decide.
//   - Mover: at most StepPages 4KB pages of the returned actions apply per
//     tick, through the same remap + TLB-shootdown path AutoNUMA data
//     migration uses, so counters stay bit-identical across runs.
//     Remaining candidates are re-emitted by the policy on later ticks —
//     its input state persists.
//
// All of it runs at quiescent points; like PolicyEngine, the engine owns no
// locks and must only be ticked from the workload engine's barrier.
type TierEngine struct {
	k       *Kernel
	p       *Process
	policy  tier.Policy
	tracker *tier.Tracker
	cfg     TierEngineConfig

	log       []TierActionRecord
	hist      tier.Histogram // last tick's histogram
	promoted  uint64         // 4KB pages promoted
	demoted   uint64         // 4KB pages demoted
	ptMoves   int
	pageViews []tier.PageView // scratch, reused across ticks
}

// AttachTierPolicy installs a tiering engine for p. Like AttachPolicy, the
// engine is returned to be ticked at the workload engine's round barriers;
// attaching replaces any previous tier engine.
func (k *Kernel) AttachTierPolicy(p *Process, pol tier.Policy, cfg TierEngineConfig) *TierEngine {
	if cfg.StepPages <= 0 {
		cfg.StepPages = 64
	}
	e := &TierEngine{
		k: k, p: p, policy: pol, cfg: cfg,
		tracker: tier.NewTracker(cfg.Tracker),
	}
	p.tierEngine = e
	return e
}

// Policy returns the wrapped policy.
func (e *TierEngine) Policy() tier.Policy { return e.policy }

// ActionLog returns the applied actions in order.
func (e *TierEngine) ActionLog() []TierActionRecord { return e.log }

// Histogram returns the last tick's per-tier hot/cold histogram.
func (e *TierEngine) Histogram() tier.Histogram { return e.hist }

// Moved returns the cumulative 4KB pages promoted and demoted, and the
// number of page-table migrations applied.
func (e *TierEngine) Moved() (promoted, demoted uint64, ptMoves int) {
	return e.promoted, e.demoted, e.ptMoves
}

// Tick implements workloads.RoundTicker.
func (e *TierEngine) Tick(round int) error {
	t := e.snapshot(round)
	budget := e.cfg.StepPages
	for _, a := range e.policy.Decide(t) {
		if budget <= 0 {
			break
		}
		applied, pages, err := e.apply(a, &budget)
		if err != nil {
			return err
		}
		if applied {
			e.log = append(e.log, TierActionRecord{Round: round, Action: a})
			switch a.Kind {
			case tier.Promote:
				e.promoted += pages
			case tier.Demote:
				e.demoted += pages
			case tier.MovePT:
				e.ptMoves++
			}
		}
	}
	// Data moves bill the process meter; drain it to the canonical core so
	// every run charges the same core at the same barrier.
	if len(e.p.cores) > 0 {
		e.k.machine.AddCycles(e.k.callCore(e.p, 0, false), drainMeterCycles(e.p))
	}
	return nil
}

// snapshot builds the tick's telemetry: the Tracker step.
func (e *TierEngine) snapshot(round int) *tier.Telemetry {
	k, p := e.k, e.p
	views := e.pageViews[:0]
	var hist tier.Histogram
	for _, v := range p.vmas {
		p.forEachMapped(v, func(va pt.VirtAddr, leaf pt.PTE, size pt.PageSize) {
			f := leaf.Frame()
			meta := k.pm.Meta(f)
			samples := meta.LocalAccesses + meta.RemoteAccesses
			meta.LocalAccesses, meta.RemoteAccesses = 0, 0
			score, idle, hot, cold := e.tracker.Observe(va, samples)
			node := k.pm.NodeOf(f)
			tk := k.topo.TierOf(node)
			hist.Add(tk, hot, uint64(size.Bytes()>>pt.PageShift4K))
			views = append(views, tier.PageView{
				VA: va, Size: size, Node: node, Tier: tk,
				Score: score, Idle: idle, Hot: hot, Cold: cold,
			})
		})
	}
	e.pageViews = views
	e.hist = hist
	primary := p.space.PrimaryNode()
	t := &tier.Telemetry{
		Round:    round,
		Pages:    views,
		Hist:     hist,
		PTNode:   primary,
		PTTier:   k.topo.TierOf(primary),
		HomeNode: k.topo.NodeOf(p.home),
	}
	for n := k.topo.DRAMNodes(); n < k.topo.Nodes(); n++ {
		t.TierNodes = append(t.TierNodes, numa.NodeID(n))
	}
	return t
}

// apply executes one action under the remaining page budget, reporting
// whether it took effect and how many 4KB pages it moved. An action that
// does not fit the budget is skipped (and every later one: candidates are
// priority-ordered, so skipping ahead would reorder the mover's work).
func (e *TierEngine) apply(a tier.Action, budget *int) (bool, uint64, error) {
	k, p := e.k, e.p
	switch a.Kind {
	case tier.Promote, tier.Demote:
		pages := uint64(a.Size.Bytes() >> pt.PageShift4K)
		if int(pages) > *budget {
			*budget = 0
			return false, 0, nil
		}
		if err := k.migrateDataPage(p, a.VA, a.Size, a.Target); err != nil {
			// Allocation pressure on the target node: skip, the policy
			// re-emits the candidate while the signal persists.
			return false, 0, nil
		}
		*budget -= int(pages)
		return true, pages, nil
	case tier.MovePT:
		// Defer the move while background replication is copying the
		// table: migrating the primary would free source frames an
		// in-flight incremental job still references. The policy re-emits
		// the move once the jobs drain.
		if p.policyEngine != nil && p.policyEngine.InFlight() > 0 {
			return false, 0, nil
		}
		ptPages := p.policyPTPages()
		if ptPages > *budget {
			*budget = 0
			return false, 0, nil
		}
		if a.Target == p.space.PrimaryNode() {
			return false, 0, nil
		}
		if err := k.MigratePT(p, a.Target, false); err != nil {
			return false, 0, fmt.Errorf("kernel: tier page-table move: %w", err)
		}
		// Future page-table allocations follow the table.
		p.SetPTPolicy(PTFixed, a.Target)
		*budget -= ptPages
		return true, uint64(ptPages), nil
	default:
		return false, 0, fmt.Errorf("kernel: unknown tier action %v", a.Kind)
	}
}
