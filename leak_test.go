package mitosis

import (
	"runtime"
	"testing"
	"time"
)

// TestRunLeaksNoGoroutines pins that the Run loop, the sweep runner's
// pool and the churn loop leave no goroutines behind: a sweep-scale caller executes hundreds of
// runs per invocation, so even one leaked goroutine per run would
// accumulate into thousands.
func TestRunLeaksNoGoroutines(t *testing.T) {
	sc := NewScenario("leak",
		OnMachine(SystemConfig{Sockets: 2, CoresPerSocket: 2, MemoryPerNode: 64 << 20}),
		WithSeed(5),
		WithProc(NewProc("w", GUPS(Scaled(1.0/64)),
			OnSockets(0, 1),
			WithPhases(Measure(200)))))

	// Warm up once so lazily started runtime helpers don't count as leaks.
	if _, err := Run(sc); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()

	const runs, churns = 150, 50
	for i := 0; i < runs; i++ {
		if _, err := Run(sc); err != nil {
			t.Fatal(err)
		}
	}
	sw := Sweep{
		Machine:    sc.Machine,
		Workloads:  []string{"GUPS"},
		SeedRungs:  2,
		Scale:      1.0 / 64,
		MeasureOps: 100,
	}
	if _, err := RunSweep(sw, WithSweepWorkers(4)); err != nil {
		t.Fatal(err)
	}
	// Repeated churn runs, each booting or recycling a pooled machine,
	// must leave nothing running either.
	ch := Churn{
		Name:         "leak",
		Machine:      sc.Machine,
		Procs:        4,
		PagesPerProc: 64,
	}
	for i := 0; i < churns; i++ {
		if _, err := RunChurn(ch); err != nil {
			t.Fatal(err)
		}
	}

	// Finished goroutines unwind asynchronously; give the scheduler a
	// moment before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after %d runs, a sweep and %d churns",
				baseline, runtime.NumGoroutine(), runs, churns)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
