// Package mitosis is the public facade of mitosis-sim, a from-scratch Go
// reproduction of "Mitosis: Transparently Self-Replicating Page-Tables for
// Large-Memory Machines" (Achermann et al., ASPLOS 2020).
//
// The library simulates a multi-socket NUMA machine — physical memory,
// x86-64 radix page-tables, per-core TLBs, MMU caches, a per-socket LLC
// model for page-table lines, and a hardware page-walker with NUMA-aware
// cycle costs — together with the OS memory subsystem Mitosis lives in:
// demand paging, placement policies, transparent huge pages, AutoNUMA-style
// data migration, and a scheduler. On top of that substrate it implements
// the paper's contribution: transparent page-table replication and
// migration behind a PV-Ops-style interception layer, with the paper's
// system-wide and per-process policies and the telemetry-driven runtime
// policy engine.
//
// # Scenarios
//
// The primary workflow is declarative: describe a whole experiment —
// machine, workloads, placement, replication, policies, phases — as a
// Scenario value, and hand it to Run. The scenario executes on the
// deterministic round-barrier engine, so the same spec always produces the
// same counters:
//
//	sc := mitosis.NewScenario("stranded-gups",
//		mitosis.WithSeed(42),
//		mitosis.WithProc(mitosis.NewProc("gups", mitosis.GUPS(mitosis.Scaled(1.0/16)),
//			mitosis.OnSockets(0),
//			mitosis.WithDataBind(0),
//			mitosis.WithPTNode(1),             // page-table stranded remote
//			mitosis.UnderPolicy("ondemand"),   // replicate when telemetry says so
//			mitosis.WithPhases(mitosis.Warmup(5000), mitosis.Measure(20000)),
//		)),
//	)
//	rr, _ := mitosis.Run(sc)
//	fmt.Println(rr.Measured("gups").Counters.RemoteWalkCycleFraction())
//
// Scenarios round-trip through JSON (json.Marshal / json.Unmarshal with
// strict validation), and every RunResult embeds the exact spec that
// produced it, so any run can be replayed bit-identically from its JSON
// record — that is how the bench harness's regression records work.
//
// # Imperative use
//
// For interactive exploration the System/Proc surface drives the machine
// directly:
//
//	sys := mitosis.NewSystem(mitosis.SystemConfig{})
//	p, _ := sys.Spawn(mitosis.ProcSpec{Name: "app"}) // one worker per socket
//	base, _ := p.Mmap(256<<20, true)
//	p.ReplicatePageTables()                  // Mitosis on, all sockets
//	p.Access(base, true)                     // runs against the simulated MMU
//	fmt.Println(sys.Report(p))
//
// The internal packages carry the full implementation. See DESIGN.md for
// the architecture and EXPERIMENTS.md for the scenario-spec walkthrough and
// the paper-versus-measured results.
package mitosis

import (
	"fmt"
	"strings"

	"github.com/mitosis-project/mitosis-sim/internal/core"
	"github.com/mitosis-project/mitosis-sim/internal/kernel"
	"github.com/mitosis-project/mitosis-sim/internal/numa"
)

// SystemConfig describes a simulated machine + kernel. It doubles as the
// Machine section of a Scenario, Sweep and Churn, so it serializes. The
// zero value is the paper's platform. Validate is the one check of the
// whole description; every spec's validation calls it, and NewSystem
// requires a config that passes it.
type SystemConfig struct {
	// Sockets and CoresPerSocket shape the machine; zero selects the
	// paper's 4-socket/14-core evaluation platform.
	Sockets        int `json:"sockets,omitempty"`
	CoresPerSocket int `json:"cores_per_socket,omitempty"`
	// MemoryPerNode is each node's capacity in bytes, rounded down to
	// whole 2MB blocks; zero — or a value below one block — selects 4GB.
	// Validate rejects non-zero values below 2MB.
	MemoryPerNode uint64 `json:"memory_per_node,omitempty"`
	// THP enables transparent huge pages.
	THP bool `json:"thp,omitempty"`
	// Tiers appends CPU-less slow-tier memory nodes after the per-socket
	// DRAM nodes, as a canonical comma-separated list of kind@homeSocket
	// entries, e.g. "cxl@0" or "cxl@0,nvm@1". Kinds are "cxl" and "nvm";
	// the home socket is the socket whose link the node hangs off. Empty
	// means a flat all-DRAM machine (the default; bit-identical to
	// pre-tier configs). A string rather than a slice so SystemConfig
	// stays comparable — it is used as a map key by the sweep's system
	// pool. Build it with the TierSpec/WithTiers scenario options.
	Tiers string `json:"tiers,omitempty"`
	// Hardware selects the translation-hardware backend and geometry, in
	// HardwareSpec.String's canonical form: "" (the default x86-64
	// 4-level backend), a backend name ("x8664", "x8664la57", "victima"),
	// or "name:l14k=E/W,l12m=E/W,l2=E/W,psc=L2/L3/L4/L5" with overridden
	// sizing groups. A string for the same comparability reason as Tiers.
	// Build it with WithHardware.
	Hardware string `json:"hardware,omitempty"`
}

// TierSpec describes one slow-tier memory node for WithTiers.
type TierSpec struct {
	// Kind is the tier medium: "cxl" or "nvm".
	Kind string
	// Socket is the home socket whose link the node hangs off.
	Socket int
}

// tierString canonicalizes tier specs into SystemConfig.Tiers form.
func tierString(tiers []TierSpec) string {
	parts := make([]string, len(tiers))
	for i, t := range tiers {
		parts[i] = fmt.Sprintf("%s@%d", strings.ToLower(strings.TrimSpace(t.Kind)), t.Socket)
	}
	return strings.Join(parts, ",")
}

// parseTiers parses a SystemConfig.Tiers string. It returns an error for
// malformed entries; home-socket range checking is the caller's job (the
// socket count may not be normalized yet).
func parseTiers(s string) ([]numa.TierNode, error) {
	if s == "" {
		return nil, nil
	}
	var out []numa.TierNode
	for i, part := range strings.Split(s, ",") {
		kind, homeStr, ok := strings.Cut(strings.TrimSpace(part), "@")
		if !ok {
			return nil, fmt.Errorf("tier %d %q: want kind@socket", i, part)
		}
		var tk numa.MemTier
		switch kind {
		case "cxl":
			tk = numa.TierCXL
		case "nvm":
			tk = numa.TierNVM
		default:
			return nil, fmt.Errorf("tier %d: unknown kind %q (want cxl or nvm)", i, kind)
		}
		var home int
		if _, err := fmt.Sscanf(homeStr, "%d", &home); err != nil || fmt.Sprint(home) != homeStr {
			return nil, fmt.Errorf("tier %d: bad home socket %q", i, homeStr)
		}
		if home < 0 {
			return nil, fmt.Errorf("tier %d: negative home socket %d", i, home)
		}
		out = append(out, numa.TierNode{Kind: tk, Home: numa.SocketID(home)})
	}
	return out, nil
}

// normalize resolves the config's defaults to concrete values, so two
// configs describe the same machine iff they normalize equal. NewSystem
// boots from the normalized form, so normalize is the single source of
// the machine defaults (kernel.New's own defaults coincide: the paper's
// 4-socket/14-core Xeon with 1M 4KB frames per node).
func (c SystemConfig) normalize() SystemConfig {
	if c.Sockets == 0 {
		c.Sockets = 4
	}
	if c.CoresPerSocket == 0 {
		c.CoresPerSocket = 14
	}
	frames := uint64(1) << 20 // 4GB per node
	if c.MemoryPerNode != 0 {
		frames = c.MemoryPerNode / (2 << 20) * 512
		if frames == 0 {
			// Below one 2MB block: fall back to the default, exactly as
			// the pre-scenario facade did (frames 0 selected the kernel
			// default). Idempotent, and Validate rejects the value with
			// an actionable error before any spec runs.
			frames = 1 << 20
		}
	}
	c.MemoryPerNode = frames * 4096
	if tn, err := parseTiers(c.Tiers); err == nil {
		// Canonicalize spacing/case so equal machines normalize equal;
		// malformed strings pass through for Validate to reject.
		c.Tiers = renderTiers(tn)
	}
	if hs, err := ParseHardware(c.Hardware); err == nil && c.Hardware != "" {
		// Same canonicalization for the hardware string; "" stays "" so
		// pre-backend configs normalize byte-identically.
		c.Hardware = hs.String()
	}
	return c
}

// renderTiers is parseTiers's inverse, producing the canonical form.
func renderTiers(tiers []numa.TierNode) string {
	parts := make([]string, len(tiers))
	for i, t := range tiers {
		parts[i] = fmt.Sprintf("%s@%d", t.Kind, t.Home)
	}
	return strings.Join(parts, ",")
}

// nodes returns the normalized machine's total memory node count
// (DRAM nodes plus tier nodes) — the range node-valued spec fields
// validate against.
func (c SystemConfig) nodes() int {
	n := c.normalize()
	tiers, _ := parseTiers(n.Tiers)
	return n.Sockets + len(tiers)
}

// Validate checks the machine description and returns the first problem
// found, phrased to be fixable: non-negative sockets and cores, at least
// one 2MB block of memory per node, a well-formed tier string whose home
// sockets exist, and a hardware string naming a backend with valid
// geometry. It is the one machine check: Scenario, Sweep and Churn
// validation all call it.
func (c SystemConfig) Validate() error {
	if c.Sockets < 0 || c.CoresPerSocket < 0 {
		return fmt.Errorf("machine sockets/cores must be non-negative")
	}
	if c.MemoryPerNode != 0 && c.MemoryPerNode < 2<<20 {
		return fmt.Errorf("machine memory_per_node %d is below one 2MB block; use at least %d (or 0 for the 4GB default)",
			c.MemoryPerNode, 2<<20)
	}
	m := c.normalize()
	tiers, err := parseTiers(m.Tiers)
	if err != nil {
		return fmt.Errorf("machine tiers: %w", err)
	}
	for i, tn := range tiers {
		if int(tn.Home) >= m.Sockets {
			return fmt.Errorf("tier %d home socket %d out of range [0,%d)", i, tn.Home, m.Sockets)
		}
	}
	hs, err := ParseHardware(m.Hardware)
	if err != nil {
		return fmt.Errorf("machine hardware: %w", err)
	}
	if err := hs.translateSpec().Validate(); err != nil {
		return fmt.Errorf("machine hardware %q: %w", m.Hardware, err)
	}
	return nil
}

// System is a simulated NUMA machine running the Mitosis-enabled kernel.
type System struct {
	k   *kernel.Kernel
	cfg SystemConfig // normalized boot configuration
	// procs indexes the processes created through this facade by name
	// (scenario runs and Spawn both register here; latest name wins).
	procs map[string]*Proc
}

// NewSystem boots a machine. cfg must pass Validate, so check configs
// from untrusted input first: NewSystem panics on the configs Validate
// rejects, except that a MemoryPerNode below one 2MB block boots the 4GB
// default.
func NewSystem(cfg SystemConfig) *System {
	norm := cfg.normalize()
	tiers, err := parseTiers(norm.Tiers)
	if err != nil {
		panic(fmt.Sprintf("mitosis: invalid SystemConfig.Tiers: %v", err))
	}
	hs, err := ParseHardware(norm.Hardware)
	if err != nil {
		panic(fmt.Sprintf("mitosis: invalid SystemConfig.Hardware: %v", err))
	}
	k := kernel.New(kernel.Config{
		Topology:      numa.NewTieredTopology(norm.Sockets, norm.CoresPerSocket, tiers),
		FramesPerNode: norm.MemoryPerNode / 4096,
		Hardware:      hs.translateSpec(),
	})
	k.SetTHP(cfg.THP)
	// The facade's workflow is per-process replication control.
	k.Sysctl().Mode = core.ModePerProcess
	k.Sysctl().PageCacheTarget = 64
	k.ApplySysctl()
	return &System{k: k, cfg: norm, procs: make(map[string]*Proc)}
}

// Reset restores the system to the state NewSystem returned it in: no
// processes, pristine memory, caches and counters, boot-time sysctl. A
// reset system runs any scenario with counters bit-identical to a freshly
// booted system — that is the contract the sweep runner's machine
// recycling relies on, and what makes Reset cheaper than a reboot: the
// machine's large allocations (frame metadata, bitmaps, cache arrays)
// survive and are rewound in place, with cost proportional to the
// previous run's footprint.
//
// Call it only at quiescence: never while a Run or an access batch is in
// flight on another goroutine.
func (s *System) Reset() {
	s.k.Reset()
	s.k.SetTHP(s.cfg.THP)
	s.k.Sysctl().Mode = core.ModePerProcess
	s.k.Sysctl().PageCacheTarget = 64
	s.k.ApplySysctl()
	clear(s.procs)
}

// Kernel exposes the underlying simulated kernel for advanced use
// (experiments, policy knobs, hardware counters).
func (s *System) Kernel() *kernel.Kernel { return s.k }

// Config returns the normalized machine configuration the system booted
// with.
func (s *System) Config() SystemConfig { return s.cfg }

// Proc returns the process with the given name, if it was created through
// this facade (Spawn or a scenario Run); nil otherwise.
func (s *System) Proc(name string) *Proc { return s.procs[name] }

// Quiesce drains every core's buffered cross-socket coherence events,
// bringing the machine to the same state a round barrier of the execution
// engine would. AccessBatch defers the page-table line invalidations a
// worker's stores cause on *other* sockets; Quiesce flushes all of them —
// including batches issued by sibling workers — so state inspection and
// replication-state changes observe a coherent machine. Facade methods that
// require quiescence call it implicitly; call it directly after hand-rolled
// AccessBatch loops. It must not be called while a batch is in flight on
// another goroutine.
func (s *System) Quiesce() {
	topo := s.k.Topology()
	all := make([]numa.CoreID, 0, topo.Cores())
	for sock := 0; sock < topo.Sockets(); sock++ {
		all = append(all, topo.CoresOf(numa.SocketID(sock))...)
	}
	s.k.Machine().DrainCoherence(all)
}

// Report renders a short human-readable counter summary.
func (s *System) Report(pr *Proc) string {
	st := pr.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "process %q: %d ops, %d cycles\n", pr.p.Name, st.Ops, st.Cycles)
	if st.Cycles > 0 {
		fmt.Fprintf(&b, "  page walks: %d (%d cycles, %.1f%% of runtime)\n",
			st.Walks, st.WalkCycles, 100*float64(st.WalkCycles)/float64(st.Cycles))
	}
	fmt.Fprintf(&b, "  remote page-table accesses: %.0f%%\n", st.RemoteWalkFraction*100)
	fmt.Fprintf(&b, "  page-table replication: %v (nodes %v)\n",
		st.Replicated, pr.p.ReplicaNodes())
	return b.String()
}
