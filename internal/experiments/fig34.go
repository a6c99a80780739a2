package experiments

import (
	"fmt"

	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/metrics"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
	"github.com/mitosis-project/mitosis-sim/internal/pt"
	"github.com/mitosis-project/mitosis-sim/internal/workloads"
)

// RunFig3 regenerates Figure 3: a processed page-table dump for the
// multi-socket Memcached run (4KB pages, first-touch allocation, AutoNUMA
// disabled), in the paper's per-level x per-socket layout.
func RunFig3(cfg Config) (string, error) {
	cfg = cfg.fill()
	_, k, err := msRun(cfg, "Memcached", MSPolicy{Name: "F"}, false)
	if err != nil {
		return "", err
	}
	var proc = firstProcess(k)
	d := pt.Snapshot(proc.Table())
	header := "Figure 3: page-table dump, multi-socket Memcached (4KB, first-touch, AutoNUMA off)\n" +
		"cell: PT pages [valid-entry targets per socket] (remote fraction)\n"
	return header + d.Format(), nil
}

// RunFig4 regenerates Figure 4: for every multi-socket workload, the
// percentage of leaf PTEs that are remote as observed from each socket.
func RunFig4(cfg Config) (*metrics.Table, error) {
	cfg = cfg.fill()
	t := &metrics.Table{
		Title:   "Figure 4: remote leaf PTEs per observing socket (multi-socket, 4KB, first-touch)",
		Columns: []string{"workload", "socket0", "socket1", "socket2", "socket3"},
	}
	for _, proto := range workloads.MultiSocketSuite() {
		_, k, err := msRun(cfg, proto.Name(), MSPolicy{Name: "F"}, false)
		if err != nil {
			return nil, err
		}
		d := pt.Snapshot(firstProcess(k).Table())
		row := []string{proto.Name()}
		for s := numa.SocketID(0); int(s) < k.Topology().Sockets(); s++ {
			row = append(row, metrics.Pct(d.RemoteLeafFraction(s)))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// RunFig1 regenerates Figure 1, the paper's headline composite: the
// remote/local leaf-PTE tables for a multi-socket workload (Canneal) and a
// migrated single-socket workload (GUPS), plus the two normalized-runtime
// comparisons with their Mitosis improvements.
func RunFig1(cfg Config) (string, error) {
	cfg = cfg.fill()
	out := "Figure 1: headline results\n\n"

	// Top-left table: Canneal multi-socket leaf-PTE locality per socket.
	baseRes, k, err := msRun(cfg, "Canneal", MSPolicy{Name: "F"}, false)
	if err != nil {
		return "", err
	}
	d := pt.Snapshot(firstProcess(k).Table())
	out += "Multi-socket (Canneal): leaf PTE locality per socket\n"
	out += "Sockets "
	for s := 0; s < k.Topology().Sockets(); s++ {
		out += fmt.Sprintf("  %d     ", s)
	}
	out += "\nRemote  "
	for s := numa.SocketID(0); int(s) < k.Topology().Sockets(); s++ {
		out += fmt.Sprintf(" %5.0f%%", d.RemoteLeafFraction(s)*100)
	}
	out += "\n\n"

	// Top-right table: single-socket GUPS with page-tables stranded remote.
	_, kg, err := wmRun(cfg, "GUPS", WMConfig{Name: "RPI-LD", RemotePT: true, Interfere: true}, false, 0)
	if err != nil {
		return "", err
	}
	dg := pt.Snapshot(firstProcess(kg).Table())
	out += fmt.Sprintf("Single-socket (GUPS after migration): remote leaf PTEs = %.0f%%\n\n",
		dg.RemoteLeafFraction(wmSocketA)*100)

	// Bottom-left: Canneal F vs F+M.
	mres, _, err := msRun(cfg, "Canneal", MSPolicy{Name: "F+M", Mitosis: true}, false)
	if err != nil {
		return "", err
	}
	out += fmt.Sprintf("Canneal multi-socket: first-touch %.3f vs +Mitosis %.3f -> %.2fx\n",
		1.0, float64(mres.Counters.Cycles)/float64(baseRes.Counters.Cycles),
		float64(baseRes.Counters.Cycles)/float64(mres.Counters.Cycles))

	// Bottom-right: GUPS local / remote(interfere) / Mitosis.
	var cycles [3]float64
	labels := []string{"local", "remote", "Mitosis"}
	configs := []WMConfig{
		{Name: "LP-LD"},
		{Name: "RPI-LD", RemotePT: true, Interfere: true},
		{Name: "RPI-LD+M", RemotePT: true, Interfere: true, MitosisMigrate: true},
	}
	for i, c := range configs {
		res, _, err := wmRun(cfg, "GUPS", c, false, 0)
		if err != nil {
			return "", err
		}
		cycles[i] = float64(res.Counters.Cycles)
	}
	out += "GUPS workload migration: "
	for i, l := range labels {
		out += fmt.Sprintf("%s %.3f  ", l, cycles[i]/cycles[0])
	}
	out += fmt.Sprintf("-> %.2fx\n", cycles[1]/cycles[2])
	return out, nil
}

// firstProcess returns the only process of a single-workload experiment
// kernel (experiment kernels host exactly one process, with PID 1).
func firstProcess(k *kernel.Kernel) *kernel.Process { return k.Process(1) }
