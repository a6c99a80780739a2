package kernel

import (
	"fmt"
	"sync"
	"testing"

	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// faultStormRun drives two processes on different sockets through a
// demand-fault storm over fresh (non-populated) regions — every access is
// a fault through the kernel's fault lock — and returns the
// per-core counters plus the machine-wide fault-latency histogram.
// With parallel=true each process is driven by its own goroutine, without
// BeginSingleWriter, so the locked LLC and page-cache paths are exercised
// and the race detector sees the real concurrent regime.
func faultStormRun(t *testing.T, parallel bool) ([]hw.CoreStats, hw.FaultLatHist, []uint64) {
	t.Helper()
	k := New(Config{Topology: numa.NewTopology(2, 2), FramesPerNode: 16384})
	a := newProc(t, k, ProcessOpts{Name: "a", Home: 0})
	b := newProc(t, k, ProcessOpts{Name: "b", Home: 1})
	if err := k.RunOnSocket(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := k.RunOnSocket(b, 1); err != nil {
		t.Fatal(err)
	}
	const pages = 1024
	const batch = 64
	drive := func(p *Process) error {
		base, err := k.Mmap(p, pages*4096, MmapOpts{Writable: true})
		if err != nil {
			return err
		}
		cores := p.Cores()
		// Pages are dealt to the process's cores round-robin; each core
		// faults its share in deterministic batches.
		for i, c := range cores {
			ops := make([]hw.AccessOp, 0, batch)
			for next := i; next < pages; next += len(cores) {
				ops = append(ops, hw.AccessOp{VA: base + pt.VirtAddr(uint64(next)*4096), Write: true})
				if len(ops) == batch {
					if err := k.machine.AccessBatch(c, ops); err != nil {
						return err
					}
					ops = ops[:0]
				}
			}
			if len(ops) > 0 {
				if err := k.machine.AccessBatch(c, ops); err != nil {
					return err
				}
			}
		}
		return nil
	}
	procs := []*Process{a, b}
	if parallel {
		var wg sync.WaitGroup
		errs := make([]error, len(procs))
		for i, p := range procs {
			wg.Add(1)
			go func(i int, p *Process) {
				defer wg.Done()
				errs[i] = drive(p)
			}(i, p)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	} else {
		for _, p := range procs {
			if err := drive(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	allCores := append(append([]numa.CoreID(nil), a.Cores()...), b.Cores()...)
	k.machine.DrainCoherence(allCores)
	stats := make([]hw.CoreStats, k.topo.Cores())
	for c := range stats {
		stats[c] = k.machine.Stats(numa.CoreID(c))
	}
	free := make([]uint64, k.topo.Nodes())
	for n := range free {
		free[n] = k.pm.FreeFrames(numa.NodeID(n))
	}
	return stats, k.machine.FaultLatency(), free
}

// TestConcurrentFaultStormDeterministic: two processes fault-storming
// concurrently from different sockets produce exactly the simulated
// counters of the same storm run sequentially, per core, including the
// fault-latency histogram and per-node allocation volume. Run with -race
// this is also the data-race stress for concurrent AccessBatch callers
// (the kernel fault lock, per-node allocator and page-cache locks, atomic
// backend counters).
func TestConcurrentFaultStormDeterministic(t *testing.T) {
	seqStats, seqHist, seqFree := faultStormRun(t, false)
	for rep := 0; rep < 3; rep++ {
		parStats, parHist, parFree := faultStormRun(t, true)
		for c := range seqStats {
			if parStats[c] != seqStats[c] {
				t.Errorf("rep %d: core %d stats diverged\nparallel:   %+v\nsequential: %+v", rep, c, parStats[c], seqStats[c])
			}
		}
		if parHist != seqHist {
			t.Errorf("rep %d: fault-latency histogram diverged\nparallel:   %v\nsequential: %v", rep, parHist, seqHist)
		}
		if fmt.Sprint(parFree) != fmt.Sprint(seqFree) {
			t.Errorf("rep %d: free frames per node diverged: parallel %v, sequential %v", rep, parFree, seqFree)
		}
	}
}
