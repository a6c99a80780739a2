package tier

import "github.com/mitosis-project/mitosis-sim/internal/pt"

// TrackerConfig tunes hotness classification.
type TrackerConfig struct {
	// HotThreshold is the decayed score at or above which a page counts as
	// hot. Default 8.
	HotThreshold uint64
	// ColdTicks is the number of consecutive unsampled ticks after which a
	// page counts as cold (a demotion candidate). Default 4.
	ColdTicks int
}

func (c TrackerConfig) withDefaults() TrackerConfig {
	if c.HotThreshold == 0 {
		c.HotThreshold = 8
	}
	if c.ColdTicks <= 0 {
		c.ColdTicks = 4
	}
	return c
}

// pageState is one page's decayed access history.
type pageState struct {
	score uint64
	idle  int
}

// Tracker maintains per-page hotness from the AutoNUMA access samples the
// engine folds into mem.FrameMeta at round barriers. It adds no per-access
// state of its own: the engine feeds it the folded per-page sample counts
// once per tick, and the tracker keeps an integer exponentially-decayed
// score per page — deterministic by construction (integer arithmetic, no
// clocks), and iteration-order-free (state is only ever read through the
// engine's VA-ordered walk).
type Tracker struct {
	cfg   TrackerConfig
	pages map[pt.VirtAddr]pageState
}

// NewTracker builds a tracker; zero-value config fields take defaults.
func NewTracker(cfg TrackerConfig) *Tracker {
	return &Tracker{cfg: cfg.withDefaults(), pages: make(map[pt.VirtAddr]pageState)}
}

// Config returns the tracker's effective configuration.
func (t *Tracker) Config() TrackerConfig { return t.cfg }

// Observe folds one tick's sample count for the page at va into its score
// (quarter-life decay: score -= score/4, then += samples) and returns the
// updated score, idle streak and classification.
func (t *Tracker) Observe(va pt.VirtAddr, samples uint32) (score uint64, idle int, hot, cold bool) {
	st := t.pages[va]
	st.score -= st.score / 4
	st.score += uint64(samples)
	if samples == 0 {
		st.idle++
	} else {
		st.idle = 0
	}
	t.pages[va] = st
	return st.score, st.idle, st.score >= t.cfg.HotThreshold, st.idle >= t.cfg.ColdTicks
}

// Forget drops the page's history (unmap).
func (t *Tracker) Forget(va pt.VirtAddr) { delete(t.pages, va) }

// Tracked returns the number of pages with history.
func (t *Tracker) Tracked() int { return len(t.pages) }
