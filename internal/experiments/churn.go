package experiments

import (
	"fmt"
	"runtime"
	"strings"

	mitosis "github.com/mitosis-project/mitosis-sim"
)

// CanonicalChurn is the committed datacenter-churn run behind
// BENCH_churn.json: 256 short-lived processes streamed across a 4-socket
// machine, each fault-storming a 1MB 4KB region plus an 8MB THP region
// before exiting. Spawn, fault storm and exit repeat on every socket, so
// the run concentrates the demand-fault, allocator and process-lifecycle
// paths; the THP region gives the fault-latency histogram its heavy tail
// (a 2MB zeroing storm costs ~128x a 4KB fault), so p99 sits two orders
// of magnitude above p50.
func CanonicalChurn() mitosis.Churn {
	return mitosis.Churn{
		Name:          "canonical",
		Machine:       mitosis.SystemConfig{Sockets: 4, CoresPerSocket: 2, MemoryPerNode: 64 << 20, THP: true},
		Procs:         256,
		PagesPerProc:  256,
		HugePages:     2048,
		Fragmentation: 0.3,
	}
}

// QuickChurn is the CI smoke subset: the same machine and per-process
// behavior as CanonicalChurn with a 16-process stream.
func QuickChurn() mitosis.Churn {
	c := CanonicalChurn()
	c.Name = "quick"
	c.Procs = 16
	return c
}

// ChurnBench is the churn target's machine-readable payload: the full
// replayable ChurnResult plus its host-side throughput.
type ChurnBench struct {
	// HostCPUs is runtime.NumCPU() on the measuring host, the context for
	// comparing throughput across records.
	HostCPUs int `json:"host_cpus"`
	// ShardedOpsPerSec is the run's simulated ops per host second (best of
	// churnReps) — the figure CI diffs against baseline. The JSON key
	// predates the single fault lock and is kept so committed records
	// still serve as baselines.
	ShardedOpsPerSec float64 `json:"sharded_ops_per_sec"`
	// Faults and the percentiles summarize the (deterministic) simulated
	// fault-latency distribution; the full histogram is in Churn.FaultHist.
	Faults uint64 `json:"faults"`
	P50    uint64 `json:"fault_p50_cycles"`
	P95    uint64 `json:"fault_p95_cycles"`
	P99    uint64 `json:"fault_p99_cycles"`
	// BaselineOpsPerSec is filled by ApplyBaseline from a reference record.
	BaselineOpsPerSec float64 `json:"baseline_ops_per_sec,omitempty"`
	// Churn is the best repetition's full result: normalized spec,
	// counters, histogram. It replays bit-identically from Churn.Churn.
	Churn *mitosis.ChurnResult `json:"churn"`
}

// ChurnOptions tune the churn target.
type ChurnOptions struct {
	// Quick selects the 16-process QuickChurn instead of CanonicalChurn.
	Quick bool
}

// churnReps is the number of repetitions; the best one is reported,
// stripping host-scheduler noise like the perf target does.
const churnReps = 5

// RunChurn executes the canonical (or quick) churn run churnReps times
// and cross-checks that every repetition reproduces the first's simulated
// outcome bit-for-bit before reporting the best host-side throughput.
func RunChurn(opt ChurnOptions) (*ChurnBench, error) {
	spec := CanonicalChurn()
	if opt.Quick {
		spec = QuickChurn()
	}
	var first, best *mitosis.ChurnResult
	for rep := 0; rep < churnReps; rep++ {
		r, err := mitosis.RunChurn(spec)
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = r
		} else if !r.DeterministicEquals(first) {
			return nil, fmt.Errorf("churn %q: repetition %d disagrees with the first on simulated outcome", spec.Name, rep)
		}
		if best == nil || r.HostOpsPerSec > best.HostOpsPerSec {
			best = r
		}
	}
	return &ChurnBench{
		HostCPUs:         runtime.NumCPU(),
		ShardedOpsPerSec: best.HostOpsPerSec,
		Faults:           best.Faults,
		P50:              best.P50,
		P95:              best.P95,
		P99:              best.P99,
		Churn:            best,
	}, nil
}

// ApplyBaseline fills the baseline column from a reference record.
func (b *ChurnBench) ApplyBaseline(ref *ChurnBench) {
	b.BaselineOpsPerSec = ref.ShardedOpsPerSec
}

// Compare returns an error when the throughput regressed below
// (1-tolerance) x the reference's. Like the perf and sweep tolerances it is
// deliberately generous: baselines travel between hosts, so only structural
// slowdowns should trip CI.
func (b *ChurnBench) Compare(ref *ChurnBench, tolerance float64) error {
	if ref.ShardedOpsPerSec <= 0 {
		return fmt.Errorf("churn baseline carries no throughput")
	}
	floor := ref.ShardedOpsPerSec * (1 - tolerance)
	if b.ShardedOpsPerSec < floor {
		return fmt.Errorf("churn throughput %.0f ops/s below %.0f (baseline %.0f, tolerance %.0f%%)",
			b.ShardedOpsPerSec, floor, ref.ShardedOpsPerSec, tolerance*100)
	}
	return nil
}

func (b *ChurnBench) String() string {
	var s strings.Builder
	c := b.Churn
	fmt.Fprintf(&s, "Datacenter churn %q: %d procs over %d sockets (host CPUs: %d)\n",
		c.Churn.Name, c.Spawned, c.Churn.Sockets, b.HostCPUs)
	fmt.Fprintf(&s, "  throughput: %12.0f sim-ops/s  (%.3fs wall, %d faults)\n",
		b.ShardedOpsPerSec, c.WallSec, b.Faults)
	fmt.Fprintf(&s, "  fault latency (sim cycles): p50=%d p95=%d p99=%d\n", b.P50, b.P95, b.P99)
	if b.BaselineOpsPerSec > 0 {
		fmt.Fprintf(&s, "  baseline: %.0f sim-ops/s (%.2fx)\n",
			b.BaselineOpsPerSec, b.ShardedOpsPerSec/b.BaselineOpsPerSec)
	}
	return s.String()
}
