package main

import (
	"fmt"
	"math/rand"
	"time"

	mitosis "github.com/mitosis-project/mitosis-sim"
	"github.com/mitosis-project/mitosis-sim/internal/hw"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
)

// churnSlot is one socket's live process in a traced churn run.
type churnSlot struct {
	socket         numa.SocketID
	cores          []numa.CoreID
	proc           *kernel.Process
	base, hugeBase pt.VirtAddr
	next           []int
	ops            []hw.AccessOp
	done           bool
	// accessNS is the slot worker's AccessBatch time minus the faults
	// inside it, since the last barrier.
	accessNS int64
}

// tracedChurn executes c as mitosis.RunChurn does, making the facade's
// process-lifecycle and access calls itself so it can time each one:
// kernel.CreateProcess/RunOn/Mmap (spawn), hw.Machine.AccessBatch (access,
// with the faults inside it timed by the fault handler) and
// DestroyProcess (exit). The caller checks the result against RunChurn's.
func tracedChurn(c mitosis.Churn, t *tracer) (*mitosis.ChurnResult, error) {
	callStart := time.Now()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	// RunChurn fills these defaults; the benchmark's spec sets all but the
	// seed, which comes from the command line.
	if c.Chunk <= 0 || c.Sockets <= 0 || c.Workers <= 0 || c.HugePages%512 != 0 {
		return nil, fmt.Errorf("traced churn needs an explicit chunk, sockets, workers and 2MB-aligned huge pages")
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	sys := mitosis.AcquireSystem(c.Machine)
	t.add(spanBoot, callStart)
	c.Machine = sys.Config()
	k := sys.Kernel()
	topo := k.Topology()
	m := k.Machine()
	ft := newFaultTimer(k)
	m.SetFaultHandler(ft)
	// The system goes back to the pool: restore the kernel's own handler
	// before releasing it.
	release := func() {
		m.SetFaultHandler(k)
		sys.Release()
	}

	if c.Fragmentation > 0 {
		r := rand.New(rand.NewSource(c.Seed))
		for n := 0; n < topo.Nodes(); n++ {
			k.Mem().Fragment(numa.NodeID(n), c.Fragmentation, r)
		}
	}
	k.SetGlobalFaultLock(c.GlobalLock)
	if c.Pressure > 0 {
		pm := k.Mem()
		need := uint64(c.PagesPerProc) + uint64(c.HugePages) + 128
		usable := uint64((1 - c.Pressure) * float64(need))
		if free := pm.FreeFrames(numa.NodeID(0)); free > usable {
			pm.SetPressure(numa.NodeID(0), free-usable)
		}
	}
	slots := make([]*churnSlot, c.Sockets)
	for s := range slots {
		cores := topo.CoresOf(numa.SocketID(s))
		slots[s] = &churnSlot{
			socket: numa.SocketID(s),
			cores:  cores,
			next:   make([]int, len(cores)),
			ops:    make([]hw.AccessOp, 0, c.Chunk),
		}
	}
	storm := time.Now()
	t.self[selfSetup] += storm.Sub(callStart).Nanoseconds()

	spawned, exited := 0, 0
	spawn := func(sl *churnSlot) error {
		start := time.Now()
		defer t.add(spanSpawn, start)
		p, err := k.CreateProcess(kernel.ProcessOpts{Name: fmt.Sprintf("%s-%d", c.Name, spawned), Home: sl.socket})
		if err != nil {
			return err
		}
		if err := k.RunOn(p, sl.cores); err != nil {
			return err
		}
		base, err := k.Mmap(p, uint64(c.PagesPerProc)*4096, kernel.MmapOpts{Writable: true})
		if err != nil {
			return err
		}
		sl.hugeBase = 0
		if c.HugePages > 0 {
			hb, err := k.Mmap(p, uint64(c.HugePages)*4096, kernel.MmapOpts{Writable: true, THP: true})
			if err != nil {
				return err
			}
			sl.hugeBase = hb
		}
		sl.proc, sl.base, sl.done = p, base, false
		for i := range sl.next {
			sl.next[i] = i
		}
		spawned++
		return nil
	}
	retire := func(sl *churnSlot) error {
		start := time.Now()
		m.DrainCoherence(sl.cores)
		k.DestroyProcess(sl.proc)
		t.add(spanExit, start)
		sl.proc = nil
		exited++
		if spawned < c.Procs {
			return spawn(sl)
		}
		return nil
	}
	totalPages := c.PagesPerProc + c.HugePages
	// round runs on the slot's worker goroutine; it touches only the slot
	// and its own cores' fault-timer slots.
	round := func(sl *churnSlot) error {
		live := false
		for i, core := range sl.cores {
			sl.ops = sl.ops[:0]
			for n := 0; n < c.Chunk && sl.next[i] < totalPages; n++ {
				idx := sl.next[i]
				var va pt.VirtAddr
				if idx < c.PagesPerProc {
					va = sl.base + pt.VirtAddr(uint64(idx)*4096)
				} else {
					va = sl.hugeBase + pt.VirtAddr(uint64(idx-c.PagesPerProc)*4096)
				}
				sl.ops = append(sl.ops, hw.AccessOp{VA: va, Write: true})
				sl.next[i] += len(sl.cores)
			}
			if len(sl.ops) == 0 {
				continue
			}
			live = true
			faults := ft.total[core]
			start := time.Now()
			err := m.AccessBatch(core, sl.ops)
			d := time.Since(start).Nanoseconds()
			sl.accessNS += max(0, d-(ft.total[core]-faults))
			if err != nil {
				return err
			}
		}
		if !live {
			sl.done = true
		}
		return nil
	}

	allocsBefore := heapAllocs()
	m.BeginSingleWriter()
	var runErr error
	for s := 0; s < c.Sockets && spawned < c.Procs && runErr == nil; s++ {
		runErr = spawn(slots[s])
	}
	type workerCh struct {
		start chan []*churnSlot
		done  chan error
	}
	var workers []workerCh
	if c.Workers > 1 {
		workers = make([]workerCh, c.Workers)
		for w := range workers {
			workers[w] = workerCh{start: make(chan []*churnSlot), done: make(chan error, 1)}
			go func(ch workerCh) {
				for batch := range ch.start {
					var err error
					for _, sl := range batch {
						if e := round(sl); e != nil && err == nil {
							err = e
						}
					}
					ch.done <- err
				}
			}(workers[w])
		}
	}
	for runErr == nil {
		var active []*churnSlot
		for _, sl := range slots {
			if sl.proc != nil {
				active = append(active, sl)
			}
		}
		if len(active) == 0 {
			break
		}
		if workers == nil {
			for _, sl := range active {
				if runErr = round(sl); runErr != nil {
					break
				}
			}
		} else {
			batches := make([][]*churnSlot, len(workers))
			for i, sl := range active {
				batches[i%len(workers)] = append(batches[i%len(workers)], sl)
			}
			for w := range workers {
				if len(batches[w]) > 0 {
					workers[w].start <- batches[w]
				}
			}
			for w := range workers {
				if len(batches[w]) > 0 {
					if err := <-workers[w].done; err != nil && runErr == nil {
						runErr = err
					}
				}
			}
		}
		// Barrier: fold the workers' access time, then retire finished
		// processes in canonical socket order.
		for _, sl := range active {
			t.self[selfAccess] += sl.accessNS
			t.measuredAccessNS += sl.accessNS
			sl.accessNS = 0
		}
		for _, sl := range active {
			if runErr == nil && sl.done {
				runErr = retire(sl)
			}
		}
	}
	for w := range workers {
		close(workers[w].start)
	}
	m.EndSingleWriter()
	if runErr != nil {
		release()
		return nil, runErr
	}
	t.measuredAllocs += heapAllocs() - allocsBefore

	res := &mitosis.ChurnResult{Churn: c, Spawned: spawned, Exited: exited, Workers: c.Workers}
	for core := 0; core < topo.Cores(); core++ {
		st := m.Stats(numa.CoreID(core))
		res.Ops += st.Ops
		res.Faults += st.Faults
		res.Cycles += uint64(st.Cycles)
		res.FaultCycles += uint64(st.FaultCycles)
		t.walks += st.Walks
		t.walkMem += st.WalkMemAccesses
		t.walkLLC += st.WalkLLCHits
		t.walkRem += st.WalkRemoteAccesses
		t.addTLB(m.TLBStats(numa.CoreID(core)))
	}
	hist := m.FaultLatency()
	res.FaultHist = append([]uint64(nil), hist[:]...)
	res.P50 = uint64(hist.Percentile(0.50))
	res.P95 = uint64(hist.Percentile(0.95))
	res.P99 = uint64(hist.Percentile(0.99))
	t.measuredOps += res.Ops
	ft.drain(t)
	t.calls++
	t.callNS = append(t.callNS, float64(time.Since(callStart).Nanoseconds()))

	allocProbe(t, k)
	start := time.Now()
	release()
	end := t.add(spanReset, start)
	t.self[selfReset] += end.Sub(start).Nanoseconds()
	t.wall += end.Sub(callStart).Nanoseconds()
	return res, nil
}
