package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// layerMetrics fills the per-layer metrics from a traced run.
func layerMetrics(t *tracer, rep *report) {
	for _, name := range spanNames {
		r := t.spans[name]
		xs := make([]float64, len(r.s))
		for i, v := range r.s {
			xs[i] = float64(v)
		}
		rep.Metrics[name+".p50"] = metric{percentile(xs, 0.50), "ns"}
		rep.Metrics[name+".p99"] = metric{percentile(xs, 0.99), "ns"}
		rep.Metrics[name+"_n"] = metric{float64(r.n), "count"}
	}
	calls := float64(t.calls)
	ops := float64(t.measuredOps)
	rep.Metrics["workloads.rounds"] = metric{ratio(float64(t.spans[spanRound].n), calls), "count"}
	rep.Metrics["kernel.faults"] = metric{ratio(float64(t.spans[spanFault].n), calls), "count"}
	rep.Metrics["hw.access_ns_per_op"] = metric{ratio(float64(t.measuredAccessNS), ops), "ns/op"}
	rep.Metrics["hw.allocs_per_op"] = metric{ratio(float64(t.measuredAllocs), ops), "allocs/op"}
	lookups := float64(t.tlb.lookups)
	rep.Metrics["tlb.l1_hit_frac"] = metric{ratio(float64(t.tlb.l1), lookups), "fraction"}
	rep.Metrics["tlb.l2_hit_frac"] = metric{ratio(float64(t.tlb.l2), lookups), "fraction"}
	rep.Metrics["tlb.miss_frac"] = metric{ratio(float64(t.tlb.misses), lookups), "fraction"}
	reads := float64(t.walkMem + t.walkLLC)
	rep.Metrics["pt.walks_per_op"] = metric{ratio(float64(t.walks), ops), "walks/op"}
	rep.Metrics["pt.reads_per_walk"] = metric{ratio(reads, float64(t.walks)), "reads/walk"}
	rep.Metrics["mmucache.llc_walk_hit_frac"] = metric{ratio(float64(t.walkLLC), reads), "fraction"}
	rep.Metrics["numa.remote_walk_read_frac"] = metric{ratio(float64(t.walkRem), float64(t.walkMem)), "fraction"}
	rep.Metrics["tier.pages_moved_per_tick"] = metric{ratio(float64(t.tierMove), float64(t.tierTick)), "pages/tick"}
	rep.Metrics["fault.recovered_frac"] = metric{ratio(float64(t.faultRec), float64(t.faultInj)), "fraction"}
	rep.Metrics["fault.pt_rebuilds"] = metric{ratio(float64(t.ptRebuild), calls), "count"}
	rep.Metrics["fault.kills"] = metric{ratio(float64(t.faultKil), calls), "count"}

	// Self-time shares. Spans on parallel worker goroutines overlap, so the
	// buckets can sum past the wall time; shares are then of their sum.
	var busy int64
	for _, n := range selfNames {
		busy += t.self[n]
	}
	t.self[selfOther] = max(0, t.wall-busy)
	total := float64(busy + t.self[selfOther])
	for _, n := range selfNames {
		rep.Metrics["self_frac."+n] = metric{ratio(float64(t.self[n]), total), "fraction"}
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// stamp identifies the code and host a result was measured on, so numbers
// from different hosts or commits are never compared by accident.
type stamp struct {
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// printStamp writes the stamp as a comment line.
func printStamp(w io.Writer) {
	s := stamp{
		Commit:     commit(),
		SourceHash: sourceHash("."),
		Go:         runtime.Version(),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	b, _ := json.Marshal(s) // a struct of strings and ints always marshals
	fmt.Fprintf(w, "# stamp %s\n", b)
}

// commit is the checked-out git commit, or "none" when the working
// directory is not the root of a git checkout.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash hashes the Go sources and module files under root, so a result
// names the code it measured even where there is no git commit.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "expected.json") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// cpuModel reads the host CPU's model name, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
