package mitosis

import (
	"encoding/json"
	"os"
	"testing"
)

// testChurn is a small mixed 4KB+THP churn spec that still spans every
// regime: multiple sockets, spawn/exit turnover, huge-fault tail.
func testChurn() Churn {
	return Churn{
		Name:          "test",
		Machine:       SystemConfig{Sockets: 4, CoresPerSocket: 2, MemoryPerNode: 64 << 20, THP: true},
		Procs:         12,
		PagesPerProc:  128,
		HugePages:     1024,
		Fragmentation: 0.3,
	}
}

// TestChurnDeterministicAcrossWorkersAndLock pins the churn engine's
// contract: the simulated outcome — counters, spawn/exit counts and the
// full fault-latency histogram — is bit-identical for any host worker
// count and for either fault-lock mode. Only host-side throughput may
// differ.
func TestChurnDeterministicAcrossWorkersAndLock(t *testing.T) {
	ref, err := RunChurn(testChurn())
	if err != nil {
		t.Fatal(err)
	}
	if ref.Spawned != 12 || ref.Exited != 12 {
		t.Fatalf("spawned/exited = %d/%d, want 12/12", ref.Spawned, ref.Exited)
	}
	if ref.Faults == 0 || ref.Ops == 0 {
		t.Fatalf("empty run: %d ops, %d faults", ref.Ops, ref.Faults)
	}
	// The THP region must actually produce the heavy tail the histogram
	// exists for: huge faults cost orders of magnitude more than 4KB ones.
	if ref.P99 <= ref.P50 {
		t.Errorf("p99 %d not above p50 %d; THP tail missing from the distribution", ref.P99, ref.P50)
	}
	for _, alt := range []Churn{
		func() Churn { c := testChurn(); c.Workers = 1; return c }(),
		func() Churn { c := testChurn(); c.Workers = 2; return c }(),
		func() Churn { c := testChurn(); c.GlobalLock = true; return c }(),
		func() Churn { c := testChurn(); c.GlobalLock = true; c.Workers = 1; return c }(),
	} {
		got, err := RunChurn(alt)
		if err != nil {
			t.Fatal(err)
		}
		if !got.DeterministicEquals(ref) {
			t.Errorf("workers=%d globalLock=%v diverged from reference:\nref: ops=%d faults=%d cycles=%d hist=%v\ngot: ops=%d faults=%d cycles=%d hist=%v",
				alt.Workers, alt.GlobalLock,
				ref.Ops, ref.Faults, ref.Cycles, ref.FaultHist,
				got.Ops, got.Faults, got.Cycles, got.FaultHist)
		}
	}
}

// TestChurnValidate rejects structurally impossible specs.
func TestChurnValidate(t *testing.T) {
	c := testChurn()
	c.Fragmentation = 1.0
	if err := c.Validate(); err == nil {
		t.Error("fragmentation 1.0 accepted")
	}
	c = testChurn()
	c.PagesPerProc = 1 << 20 // more than a node holds
	if err := c.Validate(); err == nil {
		t.Error("per-process footprint beyond node capacity accepted")
	}
}

// TestChurnRecordReplays replays the committed BENCH_churn.json: the
// recorded canonical run must reproduce every deterministic field
// bit-for-bit on this build, or the record (and the determinism claim it
// documents) is stale.
func TestChurnRecordReplays(t *testing.T) {
	data, err := os.ReadFile("BENCH_churn.json")
	if err != nil {
		t.Skipf("no committed churn record: %v", err)
	}
	var rec struct {
		Result struct {
			Churn *ChurnResult `json:"churn"`
		} `json:"result"`
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Result.Churn == nil || rec.Result.Churn.Spawned == 0 {
		t.Fatal("BENCH_churn.json carries no churn result")
	}
	got, err := RunChurn(rec.Result.Churn.Churn)
	if err != nil {
		t.Fatal(err)
	}
	if !got.DeterministicEquals(rec.Result.Churn) {
		t.Errorf("replay diverged from committed record:\nrecorded: ops=%d faults=%d cycles=%d p99=%d\nreplayed: ops=%d faults=%d cycles=%d p99=%d",
			rec.Result.Churn.Ops, rec.Result.Churn.Faults, rec.Result.Churn.Cycles, rec.Result.Churn.P99,
			got.Ops, got.Faults, got.Cycles, got.P99)
	}
}

// TestChurnInvalidMachine: a churn on a machine SystemConfig.Validate
// rejects fails validation, and RunChurn returns that error instead of
// panicking while booting the machine.
func TestChurnInvalidMachine(t *testing.T) {
	for _, m := range []SystemConfig{{Tiers: "bogus"}, {Hardware: "bogus"}, {Sockets: -1}} {
		c := testChurn()
		c.Machine = m
		if err := c.Validate(); err == nil {
			t.Errorf("machine %+v: Validate accepted it", m)
		}
		if _, err := RunChurn(c); err == nil {
			t.Errorf("machine %+v: RunChurn accepted it", m)
		}
	}
}
