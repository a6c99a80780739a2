package experiments

import (
	"os"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// TestDebugMSCanneal prints walker behaviour for calibration work. Run
// explicitly with: MITOSIS_DEBUG=1 go test -run TestDebugMSCanneal -v
func TestDebugMSCanneal(t *testing.T) {
	if os.Getenv("MITOSIS_DEBUG") == "" {
		t.Skip("calibration debug only; set MITOSIS_DEBUG=1 to run")
	}
	cfg := Config{Ops: 20000}
	for _, pol := range []MSPolicy{{Name: "F"}, {Name: "F+M", Mitosis: true}} {
		ph, _, err := msRun(cfg, "Canneal", pol, false)
		if err != nil {
			t.Fatal(err)
		}
		c := ph.Counters
		t.Logf("%s: makespan=%d total=%d walk=%d (%.1f%%) walks=%d memacc=%d llchit=%d remote=%d",
			pol.Name, c.Cycles, c.TotalCycles, c.WalkCycles,
			c.WalkCycleFraction()*100, c.Walks, c.WalkMemAccesses,
			c.WalkLLCHits, c.WalkRemoteAccesses)
		for _, s := range ph.PerSocket {
			t.Logf("  socket[%d]: cycles=%d walk=%d walks=%d rem=%d mem=%d",
				s.Socket, s.Cycles, s.WalkCycles, s.Walks, s.WalkRemoteAccesses,
				s.WalkMemAccesses)
		}
	}
}

// TestDebugMS2MCanneal inspects the 2MB multi-socket write-invalidation
// mechanism.
func TestDebugMS2MCanneal(t *testing.T) {
	if os.Getenv("MITOSIS_DEBUG") == "" {
		t.Skip("calibration debug only; set MITOSIS_DEBUG=1 to run")
	}
	cfg := Config{Ops: 20000}
	for _, pol := range []MSPolicy{{Name: "TF"}, {Name: "TF+M", Mitosis: true}} {
		ph, k, err := msRun(cfg, "Canneal", pol, true)
		if err != nil {
			t.Fatal(err)
		}
		c := ph.Counters
		t.Logf("%s: ops=%d makespan=%d walk%%=%.1f walks=%d memacc=%d llchit=%d remote=%d",
			pol.Name, c.Ops, c.Cycles, c.WalkCycleFraction()*100,
			c.Walks, c.WalkMemAccesses, c.WalkLLCHits, c.WalkRemoteAccesses)
		for s := 0; s < 4; s++ {
			ls := k.Machine().LLCStats(numa.SocketID(s))
			t.Logf("  llc[%d]: hits=%d misses=%d inval=%d", s, ls.Hits, ls.Misses, ls.Invalidates)
		}
	}
}
