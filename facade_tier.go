package mitosis

import (
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/tier"
)

// TierPolicies lists the runtime memory-tiering policies TieringSpec
// accepts, in stable order.
func TierPolicies() []string { return tier.PolicyNames() }

// TierCensus is one tier's share of a process's resident pages at the
// tiering engine's last tick, split by the tracker's hot/cold verdict
// (4KB page units).
type TierCensus struct {
	Tier      string `json:"tier"`
	HotPages  uint64 `json:"hot_pages"`
	ColdPages uint64 `json:"cold_pages"`
}

// TierOutcome is the tiering engine's record for one process: the applied
// action log, cumulative mover totals, and the final residency census.
// Identical across runs and replays, like PolicyOutcome.
type TierOutcome struct {
	Process string `json:"process"`
	Policy  string `json:"policy"`
	// Actions is the applied action log ("r12:promote@0x7f...->n0", ...).
	Actions []string `json:"actions,omitempty"`
	// PromotedPages / DemotedPages are cumulative 4KB data pages the Mover
	// migrated toward / away from fast memory.
	PromotedPages uint64 `json:"promoted_pages,omitempty"`
	DemotedPages  uint64 `json:"demoted_pages,omitempty"`
	// PTMoves counts applied page-table tier migrations.
	PTMoves int `json:"pt_moves,omitempty"`
	// Residency is the last tick's per-tier hot/cold census (tiers with no
	// pages are omitted).
	Residency []TierCensus `json:"residency,omitempty"`
}

// tierOutcomeOf converts a tier engine's state into the public record.
func tierOutcomeOf(process string, e *kernel.TierEngine) TierOutcome {
	promoted, demoted, ptMoves := e.Moved()
	out := TierOutcome{
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
		out.Residency = append(out.Residency, TierCensus{
			Tier:      numa.MemTier(tk).String(),
			HotPages:  h.Hot[tk],
			ColdPages: h.Cold[tk],
		})
	}
	return out
}
