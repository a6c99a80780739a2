package hw

import (
	"math/bits"

	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// FaultLatBuckets is the number of log2 buckets in a fault-latency
// histogram: bucket b counts faults whose simulated cycle cost cy satisfies
// 2^(b-1) < cy <= 2^b (bucket 0 holds zero-cost faults). 48 buckets cover
// any cost the cycle model can produce.
const FaultLatBuckets = 48

// FaultLatHist is a histogram of per-fault simulated latencies (the cycles
// HandleFault charged, entry overhead plus drained kernel work) in log2
// buckets. Aggregate counters can say what the *average* fault cost, but
// the churn benchmark's tail metric needs the distribution: one process's
// THP-backed fault costs hundreds of thousands of zeroing cycles while a
// neighbour's 4KB fault costs a few thousand, and p95/p99 make that skew
// visible. The histogram is a multiset over all cores, so its content is
// independent of the order concurrent faults complete in — it reproduces
// bit-identically across runs and worker counts.
type FaultLatHist [FaultLatBuckets]uint64

// add records one fault of the given cost.
func (h *FaultLatHist) add(cy numa.Cycles) {
	b := bits.Len64(uint64(cy))
	if b >= FaultLatBuckets {
		b = FaultLatBuckets - 1
	}
	h[b]++
}

// Merge accumulates o into h.
func (h *FaultLatHist) Merge(o *FaultLatHist) {
	for i, n := range o {
		h[i] += n
	}
}

// Total returns the number of recorded faults.
func (h *FaultLatHist) Total() uint64 {
	var t uint64
	for _, n := range h {
		t += n
	}
	return t
}

// Percentile returns the latency below which fraction q of the recorded
// faults fall, reported as the upper bound of the bucket containing the
// q-quantile (so Percentile(0.99) with all faults in bucket 13 returns
// 8192). Returns 0 when the histogram is empty.
func (h *FaultLatHist) Percentile(q float64) numa.Cycles {
	total := h.Total()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for b, n := range h {
		cum += n
		if cum > rank {
			if b == 0 {
				return 0
			}
			return numa.Cycles(uint64(1) << uint(b))
		}
	}
	return numa.Cycles(uint64(1) << (FaultLatBuckets - 1))
}

// FaultLatency aggregates the fault-latency histograms of all cores. Call
// it only at a quiescent point (no batch in flight). The per-core
// histograms are zeroed by both Reset and ResetStats, together with the
// rest of the counters.
func (m *Machine) FaultLatency() FaultLatHist {
	var agg FaultLatHist
	for i := range m.cores {
		agg.Merge(&m.cores[i].faultLat)
	}
	return agg
}
