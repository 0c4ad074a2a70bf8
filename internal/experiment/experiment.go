// Package experiment assembles full simulated deployments — topology,
// channel, protocol fleet, metrics — and reproduces the paper's
// evaluation artifacts: each table and figure has a Spec that runs the
// corresponding workload and renders the same rows or series the paper
// reports.
package experiment

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	// The protocol packages register themselves with protoreg from
	// init; the experiment layer builds them only through the registry.
	// core is imported by name for the typed MNP tuning hook.
	_ "mnp/internal/deluge"
	_ "mnp/internal/gossip"
	_ "mnp/internal/moap"
	_ "mnp/internal/rlnc"
	_ "mnp/internal/xnp"

	"mnp/internal/core"
	"mnp/internal/engine"
	"mnp/internal/faults"
	"mnp/internal/image"
	"mnp/internal/invariant"
	"mnp/internal/metrics"
	"mnp/internal/node"
	"mnp/internal/packet"
	"mnp/internal/protoreg"
	"mnp/internal/radio"
	"mnp/internal/sim"
	"mnp/internal/telemetry"
	"mnp/internal/topology"
)

// ProtocolKind selects the dissemination protocol under test.
type ProtocolKind int

// Protocols available to experiments.
const (
	ProtocolMNP ProtocolKind = iota + 1
	ProtocolDeluge
	ProtocolMOAP
	ProtocolXNP
	ProtocolRLNC
	ProtocolGossip
)

// String returns the protocol name.
func (p ProtocolKind) String() string {
	switch p {
	case ProtocolMNP:
		return "MNP"
	case ProtocolDeluge:
		return "Deluge"
	case ProtocolMOAP:
		return "MOAP"
	case ProtocolXNP:
		return "XNP"
	case ProtocolRLNC:
		return "RLNC"
	case ProtocolGossip:
		return "Gossip"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// RegistryName maps the kind to its protoreg registration ("mnp",
// "deluge", "moap", "xnp"); unknown kinds return "".
func (p ProtocolKind) RegistryName() string {
	switch p {
	case ProtocolMNP:
		return "mnp"
	case ProtocolDeluge:
		return "deluge"
	case ProtocolMOAP:
		return "moap"
	case ProtocolXNP:
		return "xnp"
	case ProtocolRLNC:
		return "rlnc"
	case ProtocolGossip:
		return "gossip"
	default:
		return ""
	}
}

// ProtocolByName resolves a registry name (case-insensitive) to its
// kind — the inverse of RegistryName, used by scenario files and CLIs.
func ProtocolByName(name string) (ProtocolKind, bool) {
	for _, p := range []ProtocolKind{ProtocolMNP, ProtocolDeluge, ProtocolMOAP, ProtocolXNP, ProtocolRLNC, ProtocolGossip} {
		if strings.EqualFold(name, p.RegistryName()) {
			return p, true
		}
	}
	return 0, false
}

// Setup describes one simulated deployment.
type Setup struct {
	// Name labels reports.
	Name string
	// Rows and Cols define the grid; Spacing is in feet.
	Rows, Cols int
	Spacing    float64
	// Layout, when non-nil, overrides the grid entirely (e.g. a random
	// placement from topology.ConnectedRandom).
	Layout *topology.Layout
	// ImagePackets is the program size in 22-byte packets (e.g. 100
	// for the testbed experiments, 640 for 5 segments). The image is
	// segmented into 128-packet segments.
	ImagePackets int
	// ImageData, when non-nil, disseminates exactly these bytes
	// instead of a random image of ImagePackets packets (e.g. an
	// imgdiff patch).
	ImageData []byte
	// Protocol selects the dissemination protocol (default MNP).
	Protocol ProtocolKind
	// ProtocolOptions are declarative, protocol-specific knobs applied
	// to every node after the package defaults (keys are defined by
	// each protocol's register.go — e.g. "no_sleep", "data_interval"
	// for MNP). They are the serializable face of the tuning closures:
	// scenario files compile into this map. Nil keeps the defaults,
	// byte-identical to earlier releases.
	ProtocolOptions map[string]string
	// BaseID places the base station (default node 0, a grid corner).
	// The paper's scaling argument puts it at the center of a 4x
	// larger network.
	BaseID packet.NodeID
	// Power is the TinyOS transmit power level (default PowerSim).
	Power int
	// Seed drives every random choice in the run.
	Seed int64
	// Radio overrides the channel model when non-nil.
	Radio *radio.Params
	// MNP tweaks the core protocol configuration (MNP runs only).
	MNP func(id packet.NodeID, c *core.Config)
	// Battery assigns initial battery fractions (default 1.0).
	Battery func(id packet.NodeID) float64
	// Limit bounds the simulated time (default 12 h).
	Limit time.Duration
	// Observer, when non-nil, receives node observations alongside the
	// metrics collector (e.g. a trace.Log).
	Observer node.Observer
	// Faults, when non-nil, is a fault plan scheduled onto the kernel
	// before the run starts (crashes, reboots, partitions, EEPROM
	// errors). Plans are seeded from Seed and fully reproducible.
	Faults *faults.Plan
	// Mobility, when non-nil, builds the run's mobility model over the
	// final layout (after grid construction); nil keeps the deployment
	// static and every existing golden hash byte-identical. The factory
	// receives the run seed so scenario files can defer seeding. Moves
	// are applied at MobilityEvery boundaries — on the sharded path that
	// means engine barriers, with workers parked, so tiled results stay
	// a pure function of (Seed, tile grid).
	Mobility func(l *topology.Layout, seed int64) (topology.Mobility, error)
	// MobilityEvery is the position-update quantum (default 10s when
	// Mobility is set). Finer steps cost more cache invalidations;
	// coarser ones make motion visibly stepwise to the protocols.
	MobilityEvery time.Duration
	// Invariants, when non-nil, attaches an online protocol-invariant
	// checker to the run. Build fills the clock, neighborhood, and
	// airtime hooks; set fields like AllowRadioOnInSleep or
	// SenderOverlapBudget here. Use &invariant.Config{} for defaults.
	Invariants *invariant.Config
	// Telemetry, when non-nil, streams the run as NDJSON: a meta record,
	// the fault plan, every observation, every invariant violation, and
	// a final counters summary. Nil (the default) leaves the run
	// byte-identical to an uninstrumented one.
	Telemetry *telemetry.Recorder
	// Shards splits the deployment into that many spatially contiguous
	// shards run in conservative lockstep by internal/engine. 0 (the
	// default) and 1 run the classic single-kernel path, byte-identical
	// to earlier releases.
	// Sharded runs are deterministic functions of (Seed, Shards) but
	// not bitwise identical to sequential ones — see DESIGN.md §4f.
	Shards int
	// Workers bounds the sharded engine's parallelism: <= 1 advances
	// shards inline on the calling goroutine (identical results, no
	// goroutines), anything larger runs executor 0 on the calling
	// goroutine and one worker goroutine for each further executor, and
	// 0 picks a mode from the host CPU count. Ignored on the sequential
	// path.
	Workers int
	// TileRows and TileCols partition the deployment into a 2D tile
	// grid run by the lockstep engine, with Shards logical executors
	// (default 1) advancing the tiles. Results are a pure function of
	// (Seed, tile grid) — independent of Shards, Workers, and the
	// repartitioner. Both zero (the default) keeps the legacy layout:
	// Shards contiguous strips, one per executor. A 1×1 grid runs the
	// classic sequential path, byte-identical to earlier releases.
	TileRows, TileCols int
	// TileAuto sizes the tile grid automatically from the deployment
	// extent, the radio range, and the worker count (engine.AutoGrid).
	// Mutually exclusive with TileRows/TileCols.
	TileAuto bool
	// Repartition enables the engine's adaptive repartitioner:
	// executor loads are compared every RepartitionEvery windows
	// (default 32) and whole tiles migrate between executors when the
	// max/mean load skew exceeds RepartitionThreshold (default 1.25).
	// Migration is quantized to barriers and moves no simulation
	// state, so it never affects results. Ignored (with a validated
	// no-op) on the sequential path.
	Repartition          bool
	RepartitionEvery     int
	RepartitionThreshold float64
}

// EngineConfig is a run's execution choice, kept apart from the
// deployment so one predefined spec can run sequentially or tiled: the
// mnpexp -shards/-tiles/-repartition flags set it on every Spec they
// run. The zero value is the sequential single-kernel path.
type EngineConfig struct {
	// Shards is the executor count (or strip count without a tile
	// grid), as Setup.Shards.
	Shards int
	// TileRows/TileCols or TileAuto select the tile grid, as the Setup
	// fields of the same names.
	TileRows, TileCols int
	TileAuto           bool
	// Repartition enables the adaptive tile repartitioner.
	Repartition bool
}

// Apply returns s with every engine choice it leaves unset taken from
// e: Shards when zero, the tile grid when none is chosen, and
// Repartition when off. Choices s makes itself win.
func (e EngineConfig) Apply(s Setup) Setup {
	if s.Shards == 0 {
		s.Shards = e.Shards
	}
	if s.TileRows == 0 && s.TileCols == 0 && !s.TileAuto {
		s.TileRows, s.TileCols, s.TileAuto = e.TileRows, e.TileCols, e.TileAuto
	}
	s.Repartition = s.Repartition || e.Repartition
	return s
}

// run executes s under e.
func (e EngineConfig) run(s Setup) (*Result, error) { return Run(e.Apply(s)) }

// ParseTileSpec parses a CLI tile-grid argument: "" (no tiling),
// "auto" (size the grid from the deployment and worker count), or
// "RxC" (e.g. "4x4"). Shared by the mnpsim and mnpexp flags.
func ParseTileSpec(spec string) (rows, cols int, auto bool, err error) {
	spec = strings.TrimSpace(strings.ToLower(spec))
	if spec == "" {
		return 0, 0, false, nil
	}
	if spec == "auto" {
		return 0, 0, true, nil
	}
	r, c, ok := strings.Cut(spec, "x")
	if ok {
		rows, err = strconv.Atoi(strings.TrimSpace(r))
		if err == nil {
			cols, err = strconv.Atoi(strings.TrimSpace(c))
		}
		if err == nil && rows > 0 && cols > 0 {
			return rows, cols, false, nil
		}
	}
	return 0, 0, false, fmt.Errorf(`tile grid %q: want "RxC" (e.g. 4x4) or "auto"`, spec)
}

func (s Setup) withDefaults() Setup {
	if s.Spacing == 0 {
		s.Spacing = 10
	}
	if s.ImagePackets == 0 {
		s.ImagePackets = image.DefaultSegmentPackets
	}
	if s.Protocol == 0 {
		s.Protocol = ProtocolMNP
	}
	if s.Power == 0 {
		s.Power = radio.PowerSim
	}
	if s.Limit == 0 {
		s.Limit = 12 * time.Hour
	}
	if s.Shards == 0 {
		s.Shards = 1
	}
	if s.Mobility != nil && s.MobilityEvery == 0 {
		s.MobilityEvery = 10 * time.Second
	}
	return s
}

// Validate rejects malformed deployment descriptions with descriptive
// errors before Build constructs anything. Build calls it (after
// applying defaults); call it directly to vet user input early.
func (s Setup) Validate() error {
	n := 0
	if s.Layout != nil {
		n = s.Layout.N()
	} else {
		if s.Rows <= 0 || s.Cols <= 0 {
			return fmt.Errorf("experiment %s: grid %dx%d is invalid: rows and cols must be positive", s.Name, s.Rows, s.Cols)
		}
		if s.Spacing <= 0 {
			return fmt.Errorf("experiment %s: spacing %g ft must be positive", s.Name, s.Spacing)
		}
		n = s.Rows * s.Cols
	}
	if n == 0 {
		return fmt.Errorf("experiment %s: layout has no nodes", s.Name)
	}
	if s.Shards < 1 {
		return fmt.Errorf("experiment %s: shard count %d must be at least 1", s.Name, s.Shards)
	}
	if s.Shards > n {
		return fmt.Errorf("experiment %s: %d shards exceed the %d-node deployment", s.Name, s.Shards, n)
	}
	if s.TileRows < 0 || s.TileCols < 0 {
		return fmt.Errorf("experiment %s: tile grid %dx%d is invalid: rows and cols must be non-negative", s.Name, s.TileRows, s.TileCols)
	}
	if (s.TileRows > 0) != (s.TileCols > 0) {
		return fmt.Errorf("experiment %s: tile grid %dx%d is invalid: set both rows and cols (or neither)", s.Name, s.TileRows, s.TileCols)
	}
	if tiles := s.TileRows * s.TileCols; tiles > 0 {
		if s.TileAuto {
			return fmt.Errorf("experiment %s: tile grid %dx%d and automatic tiling are mutually exclusive", s.Name, s.TileRows, s.TileCols)
		}
		if tiles > n {
			return fmt.Errorf("experiment %s: %dx%d tile grid has %d tiles for the %d-node deployment", s.Name, s.TileRows, s.TileCols, tiles, n)
		}
		if s.Shards > tiles {
			return fmt.Errorf("experiment %s: %d executors exceed the %d-tile grid", s.Name, s.Shards, tiles)
		}
	}
	if s.RepartitionEvery < 0 {
		return fmt.Errorf("experiment %s: repartition period %d windows is negative", s.Name, s.RepartitionEvery)
	}
	if s.RepartitionThreshold != 0 && s.RepartitionThreshold < 1 {
		return fmt.Errorf("experiment %s: repartition threshold %g must be at least 1 (or 0 for the default)", s.Name, s.RepartitionThreshold)
	}
	if (s.RepartitionEvery != 0 || s.RepartitionThreshold != 0) && !s.Repartition {
		return fmt.Errorf("experiment %s: repartition tuning set but repartitioning is off", s.Name)
	}
	if s.ImagePackets < 0 {
		return fmt.Errorf("experiment %s: image size %d packets is negative", s.Name, s.ImagePackets)
	}
	if s.MobilityEvery < 0 {
		return fmt.Errorf("experiment %s: mobility step %v is negative", s.Name, s.MobilityEvery)
	}
	if s.MobilityEvery > 0 && s.Mobility == nil {
		return fmt.Errorf("experiment %s: mobility step set but no mobility model", s.Name)
	}
	if s.Limit < 0 {
		return fmt.Errorf("experiment %s: time limit %v is negative", s.Name, s.Limit)
	}
	// Protocol 0 is "unset" (Build defaults it to MNP); anything else
	// must map to a registered protocol rather than falling through to
	// a default branch at build time.
	if s.Protocol != 0 {
		name := s.Protocol.RegistryName()
		if name == "" {
			return fmt.Errorf("experiment %s: unknown protocol kind %d (valid: %s)",
				s.Name, int(s.Protocol), strings.Join(protoreg.Names(), ", "))
		}
		if _, ok := protoreg.Lookup(name); !ok {
			return fmt.Errorf("experiment %s: protocol %q is not registered", s.Name, name)
		}
	}
	if len(s.ProtocolOptions) > 0 {
		name := s.Protocol.RegistryName()
		if name == "" {
			name = ProtocolMNP.RegistryName()
		}
		if err := protoreg.ValidateOptions(name, s.ProtocolOptions); err != nil {
			return fmt.Errorf("experiment %s: %w", s.Name, err)
		}
	}
	return nil
}

// Result is a completed run plus everything needed to render reports.
type Result struct {
	Setup     Setup
	Layout    *topology.Layout
	Medium    *radio.Medium
	Network   *node.Network
	Collector *metrics.Collector
	Image     *image.Image
	Kernel    *sim.Kernel

	// Engine drives a sharded run (Setup.Shards > 1 or a multi-tile
	// grid); nil on the sequential path. Kernel and Medium are nil when
	// Engine is set — no single pair exists — and Collector holds the
	// deterministic cross-shard merge, available once the run finishes.
	Engine *engine.Engine
	// TileGrid is the tile partition the engine ran over (1×Shards for
	// legacy strips); zero on the sequential path.
	TileGrid engine.Grid
	// Loads collects the engine's per-period load reports (one entry
	// per report period, each with per-executor event/delivery/wait
	// figures and the tiles migrated at that barrier). Empty on the
	// sequential path.
	Loads []engine.LoadReport
	// Now is the run's observation clock: Kernel.Now sequentially, the
	// engine's replay-aware clock when sharded. Bind lazily-clocked
	// observers (trace logs, telemetry recorders) to it.
	Now func() time.Duration

	// Invariants is the attached checker, nil unless Setup.Invariants
	// was set.
	Invariants *invariant.Checker

	// Completed reports whether every node finished within Limit.
	Completed bool
	// CompletionTime is the instant the last node completed.
	CompletionTime time.Duration

	// Per-shard state merged by RunToCompletion.
	shardCollectors []*metrics.Collector
	shardOf         []int
}

// Run executes the deployment until full coverage or the time limit.
func Run(s Setup) (*Result, error) {
	res, err := Build(s)
	if err != nil {
		return nil, err
	}
	res.RunToCompletion()
	res.FinishTelemetry()
	return res, nil
}

// RunToCompletion starts every node, drives the simulation (whichever
// engine Build selected) until full coverage or the time limit, and
// finalizes the result's merged collector. Callers needing to schedule
// instrumentation between Build and the run use it in place of driving
// res.Kernel by hand; sequential results can still be driven manually.
func (r *Result) RunToCompletion() {
	r.Network.Start()
	if r.Engine != nil {
		r.Completed = r.Engine.RunUntil(r.Network.AllCompleted, r.Setup.Limit)
	} else {
		r.Completed = r.Network.RunUntilComplete(r.Setup.Limit)
	}
	r.CompletionTime = r.Network.CompletionTime()
	r.finalizeShards()
}

// finalizeShards merges per-shard collectors into Result.Collector
// deterministically (per-node rows from the owning shard, summed
// timelines, (time, node)-merged sender logs). A no-op sequentially.
func (r *Result) finalizeShards() {
	if r.Engine == nil || r.Collector != nil {
		return
	}
	merged, err := metrics.MergeShards(r.shardCollectors, r.shardOf)
	if err != nil {
		// The collectors and owner map were built together in Build;
		// a mismatch is a harness bug, not a runtime condition.
		panic(fmt.Sprintf("experiment %s: merging shard collectors: %v", r.Setup.Name, err))
	}
	r.Collector = merged
}

// Counters builds the run's final counter registry: the metrics
// snapshot up to completion (or the limit), plus the engine's
// window/ghost/migration totals on sharded runs. The telemetry
// summary record and the CLIs' counters.prom dumps both come from
// here, so the two surfaces always agree.
func (r *Result) Counters() *telemetry.Counters {
	until := r.CompletionTime
	if !r.Completed {
		until = r.Setup.Limit
	}
	c := telemetry.CountersFromSnapshot(r.Collector.Snapshot(until))
	if r.Engine != nil {
		st := r.Engine.Stats()
		c.Set("engine_windows_total", st.Windows)
		c.Set("engine_ghosts_exported_total", st.GhostsExported)
		c.Set("engine_ghosts_offered_total", st.GhostsOffered)
		c.Set("engine_tile_migrations_total", st.Migrations)
		c.Set("engine_repartitions_total", st.Repartitions)
	}
	var hits, misses, invalidations uint64
	if r.Engine != nil {
		for _, sh := range r.Engine.Shards() {
			h, m, inv, _ := sh.Medium.CacheStats()
			hits, misses, invalidations = hits+h, misses+m, invalidations+inv
		}
	} else if r.Medium != nil {
		hits, misses, invalidations, _ = r.Medium.CacheStats()
	}
	c.Set("radio_link_cache_hits_total", int64(hits))
	c.Set("radio_link_cache_misses_total", int64(misses))
	c.Set("radio_link_cache_invalidations_total", int64(invalidations))
	return c
}

// FinishTelemetry emits the final counters summary to the attached
// telemetry recorder. Run calls it automatically; callers driving the
// kernel themselves (after Build) call it once the run is over.
func (r *Result) FinishTelemetry() {
	if r.Setup.Telemetry == nil {
		return
	}
	r.Setup.Telemetry.Summary(r.Counters().Snapshot())
}

// Build constructs the deployment without starting the protocols, so
// callers can schedule fault injection or custom instrumentation first;
// follow with res.Network.Start() and drive res.Kernel directly.
func Build(s Setup) (*Result, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	raw := s.ImageData
	if raw == nil {
		raw = make([]byte, s.ImagePackets*image.DefaultPayloadSize)
		fill := sim.New(s.Seed + 77)
		fill.Rand().Read(raw)
	}
	img, err := image.New(1, raw)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", s.Name, err)
	}
	layout := s.Layout
	if layout == nil {
		var err error
		layout, err = topology.Grid(s.Rows, s.Cols, s.Spacing)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", s.Name, err)
		}
	}
	if int(s.BaseID) >= layout.N() {
		return nil, fmt.Errorf("experiment %s: base %v outside the %d-node layout", s.Name, s.BaseID, layout.N())
	}
	// The engine path serves legacy strip sharding (Shards > 1) and any
	// multi-tile grid. A 1×1 grid is the whole deployment in one cell:
	// it routes to the sequential path below, byte-identical to every
	// pre-tiling golden hash.
	if s.Shards > 1 || s.TileRows*s.TileCols > 1 || s.TileAuto {
		return buildSharded(s, img, layout)
	}
	// Events scale with nodes (a few timers and an in-flight frame
	// each); sizing the heap up front keeps 10k-node runs from
	// re-growing it mid-run. Capacity never affects event order.
	kernel := sim.NewSized(s.Seed, 4*layout.N())
	rp := radio.DefaultParams()
	if s.Radio != nil {
		rp = *s.Radio
	}
	medium, err := radio.NewMedium(kernel, layout, rp, s.Seed+1)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", s.Name, err)
	}
	rangeFt, err := medium.RangeFor(s.Power)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", s.Name, err)
	}
	collector, err := metrics.NewCollector(metrics.Config{
		Layout:            layout,
		Airtime:           medium.Airtime,
		NeighborhoodRange: rangeFt,
	}, kernel.Now)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", s.Name, err)
	}
	medium.SetSink(collector)

	factory := s.protocolFactory(img)
	var checker *invariant.Checker
	var obs node.Observer = collector
	observers := node.MultiObserver{collector}
	if s.Observer != nil {
		observers = append(observers, s.Observer)
	}
	if s.Telemetry != nil {
		// The stream opens with the run's identity, then the full fault
		// plan — emitted up front so a reader of a truncated stream still
		// knows what was going to be injected.
		s.Telemetry.Meta(s.Name, s.Seed, layout.N(), img.TotalPackets(), s.Protocol.String())
		if s.Faults != nil {
			for _, ev := range s.Faults.Events {
				s.Telemetry.Fault(ev.At, ev.Kind.String(), ev.Describe())
			}
		}
		observers = append(observers, s.Telemetry)
	}
	if s.Invariants != nil {
		icfg := *s.Invariants
		icfg.Now = kernel.Now
		icfg.Airtime = medium.Airtime
		icfg.Neighbor = func(a, b packet.NodeID) bool {
			d, err := layout.Distance(a, b)
			return err == nil && d <= rangeFt
		}
		if s.Telemetry != nil {
			rec, prev := s.Telemetry, icfg.OnViolation
			icfg.OnViolation = func(v invariant.Violation) {
				rec.Violation(v.At, v.Node, v.Rule, v.Detail)
				if prev != nil {
					prev(v)
				}
			}
		}
		checker, err = invariant.New(icfg)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", s.Name, err)
		}
		observers = append(observers, checker)
		medium.SetTap(checker.PacketSent)
	}
	if len(observers) > 1 {
		obs = observers
	}
	nw, err := node.NewNetwork(kernel, medium, layout, factory, obs)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", s.Name, err)
	}
	if s.Faults != nil {
		err := s.Faults.Apply(faults.Env{
			Kernel:  kernel,
			Network: nw,
			Medium:  medium,
			Seed:    s.Seed,
			Base:    s.BaseID,
		})
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", s.Name, err)
		}
	}
	if s.Mobility != nil {
		model, err := s.Mobility(layout, s.Seed)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", s.Name, err)
		}
		// A self-re-arming kernel event applies position updates at
		// every nominal instant k×MobilityEvery. The model is stepped
		// with the nominal time, so trajectories are independent of
		// everything but (seed, step) — the sharded path below feeds
		// the same instants through engine barriers.
		geo := medium.Geometry()
		var step func(nominal time.Duration)
		step = func(nominal time.Duration) {
			for _, mv := range model.Moves(nominal) {
				geo.MoveNode(mv.ID, mv.To)
			}
			if next := nominal + s.MobilityEvery; next <= s.Limit {
				kernel.MustSchedule(s.MobilityEvery, func() { step(next) })
			}
		}
		kernel.MustSchedule(s.MobilityEvery, func() { step(s.MobilityEvery) })
	}
	armImageCheck(checker, s.Protocol, img, nw)
	return &Result{
		Setup:     s,
		Layout:    layout,
		Medium:    medium,
		Network:   nw,
		Collector: collector,
		Image:     img,
		Kernel:    kernel,
		Now:       kernel.Now,

		Invariants: checker,
	}, nil
}

// armImageCheck installs the segment-image-integrity invariant on a
// checker: stored payloads of every completed segment must match the
// source image byte-for-byte. Deluge is excluded — its EEPROM slots
// follow page geometry, not the image's (seg, pkt) layout. The stored
// hook reads the node's EEPROM directly (not through the runtime), so
// checking stays observation-only: no StorageOp events, no energy
// charge, no behavior perturbation.
func armImageCheck(checker *invariant.Checker, proto ProtocolKind, img *image.Image, nw *node.Network) {
	if checker == nil || proto == ProtocolDeluge {
		return
	}
	checker.SetImageCheck(
		func(seg, pkt int) ([]byte, bool) {
			p, err := img.Payload(seg, pkt)
			return p, err == nil
		},
		func(id packet.NodeID, seg, pkt int) []byte {
			n := nw.Node(id)
			if n == nil {
				return nil
			}
			return n.EEPROM().Read(seg, pkt)
		},
	)
}

// protocolFactory builds the per-node protocol factory shared by the
// sequential and sharded paths by resolving the configured protocol in
// the registry (each protocol package registers itself from init).
// Validate has already vetted the kind and the option map, so the
// builder cannot fail per node.
func (s Setup) protocolFactory(img *image.Image) node.Factory {
	name := s.Protocol.RegistryName()
	builder, ok := protoreg.Lookup(name)
	if !ok {
		// Unreachable after Validate; a nil factory would be a silent
		// misconfiguration, so fail loudly.
		panic(fmt.Sprintf("experiment %s: protocol %q not registered", s.Name, name))
	}
	var tune any
	if s.MNP != nil {
		tune = s.MNP
	}
	return func(id packet.NodeID) (node.Protocol, node.Config) {
		ncfg := node.Config{TxPower: s.Power}
		if s.Battery != nil {
			ncfg.Battery = s.Battery(id)
		}
		p, err := builder(protoreg.Build{
			ID:      id,
			Base:    id == s.BaseID,
			Image:   img,
			Options: s.ProtocolOptions,
			Tune:    tune,
		})
		if err != nil {
			panic(fmt.Sprintf("experiment %s: building %s for node %v: %v", s.Name, name, id, err))
		}
		return p, ncfg
	}
}

// buildSharded assembles an engine-driven deployment: the layout is
// partitioned into tiles (an explicit or automatic 2D grid, or the
// legacy contiguous strips when only Shards is set), each tile gets a
// kernel, a radio shard over the shared channel geometry, and a
// collector, nodes are pinned to the tile owning them, and
// single-instance observers (trace logs, telemetry, the invariant
// checker) are fed through the engine's deterministic barrier replay.
// Logical executors advance the tiles; on the legacy path there is one
// tile per executor, reproducing the PR 4 strip engine exactly.
func buildSharded(s Setup, img *image.Image, layout *topology.Layout) (*Result, error) {
	rp := radio.DefaultParams()
	if s.Radio != nil {
		rp = *s.Radio
	}
	geo, err := radio.NewGeometry(layout, rp, s.Seed+1)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", s.Name, err)
	}
	rangeFt, err := geo.RangeFor(s.Power)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", s.Name, err)
	}
	var tiles []engine.Tile
	var grid engine.Grid
	executors := s.Shards
	switch {
	case s.TileRows > 0:
		grid = engine.Grid{Rows: s.TileRows, Cols: s.TileCols}
		tiles, err = engine.TilePartition(layout, grid)
	case s.TileAuto:
		workersHint := s.Workers
		if workersHint <= 0 {
			workersHint = runtime.NumCPU()
		}
		grid = engine.AutoGrid(layout, rangeFt, workersHint)
		tiles, err = engine.TilePartition(layout, grid)
	default:
		// Legacy strips: K tiles, one per executor, with the exact
		// partition, ordering, and seeds of the pre-tiling engine.
		grid = engine.Grid{Rows: 1, Cols: s.Shards}
		var parts [][]packet.NodeID
		parts, err = engine.Partition(layout, s.Shards)
		if err == nil {
			tiles = make([]engine.Tile, len(parts))
			for i, owned := range parts {
				tiles[i] = engine.Tile{Row: 0, Col: i, Owned: owned, Bounds: engine.BoundsOf(layout, owned)}
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", s.Name, err)
	}
	if executors < 1 {
		executors = 1
	}
	if executors > len(tiles) {
		executors = len(tiles)
	}
	shardOf := make([]int, layout.N())
	shards := make([]*engine.Shard, len(tiles))
	collectors := make([]*metrics.Collector, len(tiles))
	for i, tile := range tiles {
		owned := tile.Owned
		for _, id := range owned {
			shardOf[id] = i
		}
		// Distinct RNG streams per tile; the stride keeps tile seeds
		// clear of the seed+1 (link noise) and seed+77 (image fill)
		// derivations. Seeds depend on the tile index only — never on
		// executors or workers — so results are a pure function of
		// (Seed, tile grid).
		kernel := sim.NewSized(s.Seed+0x5EED*int64(i+1), 4*len(owned)+64)
		medium, err := radio.NewShardMedium(kernel, geo, owned)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", s.Name, err)
		}
		collector, err := metrics.NewCollector(metrics.Config{
			Layout:            layout,
			Airtime:           geo.Airtime,
			NeighborhoodRange: rangeFt,
		}, kernel.Now)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", s.Name, err)
		}
		medium.SetSink(collector)
		collectors[i] = collector
		bounds := tile.Bounds
		shards[i] = &engine.Shard{Kernel: kernel, Medium: medium, Owned: owned, Bounds: &bounds}
	}
	var rep *engine.Repartition
	if s.Repartition {
		rep = &engine.Repartition{Every: s.RepartitionEvery, Threshold: s.RepartitionThreshold}
	}
	res := &Result{}
	onLoad := func(lr engine.LoadReport) {
		res.Loads = append(res.Loads, lr)
		if s.Telemetry != nil {
			for _, sl := range lr.Shards {
				s.Telemetry.Load(lr.Barrier, lr.Window, sl.Shard, sl.Tiles, sl.Events, sl.Delivered, sl.WaitNs, lr.Migrations)
			}
		}
	}
	eng, err := engine.New(engine.Config{
		Window:      engine.ConservativeWindow(geo),
		Workers:     s.Workers,
		Shards:      executors,
		Repartition: rep,
		OnLoad:      onLoad,
	}, shards)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", s.Name, err)
	}

	// Single-instance observers see the merged stream via barrier
	// replay, in the same relative order the sequential path wires
	// them: user observer, telemetry, invariant checker.
	var checker *invariant.Checker
	var globalObs node.MultiObserver
	if s.Observer != nil {
		globalObs = append(globalObs, s.Observer)
	}
	if s.Telemetry != nil {
		s.Telemetry.SetClock(eng.Now)
		s.Telemetry.Meta(s.Name, s.Seed, layout.N(), img.TotalPackets(), s.Protocol.String())
		if s.Faults != nil {
			for _, ev := range s.Faults.Events {
				s.Telemetry.Fault(ev.At, ev.Kind.String(), ev.Describe())
			}
		}
		globalObs = append(globalObs, s.Telemetry)
	}
	if s.Invariants != nil {
		icfg := *s.Invariants
		icfg.Now = eng.Now
		icfg.Airtime = geo.Airtime
		icfg.Neighbor = func(a, b packet.NodeID) bool {
			d, err := layout.Distance(a, b)
			return err == nil && d <= rangeFt
		}
		if s.Telemetry != nil {
			rec, prev := s.Telemetry, icfg.OnViolation
			icfg.OnViolation = func(v invariant.Violation) {
				rec.Violation(v.At, v.Node, v.Rule, v.Detail)
				if prev != nil {
					prev(v)
				}
			}
		}
		checker, err = invariant.New(icfg)
		if err != nil {
			return nil, fmt.Errorf("experiment %s: %w", s.Name, err)
		}
		globalObs = append(globalObs, checker)
		eng.SetTap(checker.PacketSent)
		for i, sh := range shards {
			sh.Medium.SetTap(eng.ShardObserver(i).PacketSent)
		}
	}
	buffering := len(globalObs) > 0 || checker != nil
	if len(globalObs) == 1 {
		eng.SetObserver(globalObs[0])
	} else if len(globalObs) > 1 {
		eng.SetObserver(globalObs)
	}

	place := func(id packet.NodeID) (*sim.Kernel, *radio.Medium, node.Observer) {
		sh := shards[shardOf[id]]
		var obs node.Observer = collectors[shardOf[id]]
		if buffering {
			obs = node.MultiObserver{obs, eng.ShardObserver(shardOf[id])}
		}
		return sh.Kernel, sh.Medium, obs
	}
	nw, err := node.NewPartitionedNetwork(layout, s.protocolFactory(img), place)
	if err != nil {
		return nil, fmt.Errorf("experiment %s: %w", s.Name, err)
	}
	if s.Faults != nil {
		clocks := make([]func() time.Duration, len(shards))
		mediums := make([]*radio.Medium, len(shards))
		for i, sh := range shards {
			clocks[i] = sh.Kernel.Now
			mediums[i] = sh.Medium
		}
		env := faults.ShardedEnv{
			At:      eng.At,
			Network: nw,
			Mediums: mediums,
			Clocks:  clocks,
			ShardOf: func(id packet.NodeID) int { return shardOf[id] },
			Seed:    s.Seed,
			Base:    s.BaseID,
		}
		if err := s.Faults.ApplySharded(env); err != nil {
			return nil, fmt.Errorf("experiment %s: %w", s.Name, err)
		}
	}
	if s.Mobility != nil {
		model, merr := s.Mobility(layout, s.Seed)
		if merr != nil {
			return nil, fmt.Errorf("experiment %s: %w", s.Name, merr)
		}
		// Position updates ride the engine's global-event queue, so they
		// land at barriers with every worker parked — the only point a
		// mutation of the shared Geometry is safe. The model is stepped
		// with the nominal instant k×MobilityEvery (not the barrier
		// time), and ConservativeWindow is grid-independent, so tiled
		// runs stay a pure function of (Seed, tile grid) under mobility.
		// Each shard's ghost-filter bounds are refreshed from the moved
		// layout before the next window opens.
		var arm func(nominal time.Duration)
		arm = func(nominal time.Duration) {
			eng.At(nominal, func() {
				moved := model.Moves(nominal)
				for _, mv := range moved {
					geo.MoveNode(mv.ID, mv.To)
				}
				if len(moved) > 0 {
					for _, sh := range shards {
						*sh.Bounds = engine.BoundsOf(layout, sh.Owned)
					}
				}
				if next := nominal + s.MobilityEvery; next <= s.Limit {
					arm(next)
				}
			})
		}
		arm(s.MobilityEvery)
	}
	armImageCheck(checker, s.Protocol, img, nw)
	res.Setup = s
	res.Layout = layout
	res.Network = nw
	res.Image = img
	res.Engine = eng
	res.Now = eng.Now
	res.TileGrid = grid
	res.Invariants = checker
	res.shardCollectors = collectors
	res.shardOf = shardOf
	return res, nil
}

// LoadMatrix flattens the run's engine load reports into one
// per-period per-executor vector of deterministic load (kernel events
// + frame deliveries), the shape metrics.SummarizeLoads consumes.
func (r *Result) LoadMatrix() [][]int64 {
	out := make([][]int64, 0, len(r.Loads))
	for _, lr := range r.Loads {
		row := make([]int64, len(lr.Shards))
		for i, sl := range lr.Shards {
			row[i] = sl.Events + sl.Delivered
		}
		out = append(out, row)
	}
	return out
}

// VerifyInvariants returns the checker's first recorded violation, or
// nil when no checker was attached or every invariant held.
func (r *Result) VerifyInvariants() error {
	if r.Invariants == nil {
		return nil
	}
	return r.Invariants.Err()
}

// VerifyImages checks the reliability requirement on every node and
// returns an error naming the first violation. Only MNP-geometry
// protocols (MNP, XNP, MOAP, RLNC, which all use 128-packet segment
// slots) are verified packet-by-packet; Deluge uses page-numbered
// slots and is verified by completion plus write-once.
func (r *Result) VerifyImages() error {
	for _, n := range r.Network.Nodes {
		if n.Dead() {
			continue
		}
		if !n.Completed() {
			return fmt.Errorf("node %v incomplete", n.ID())
		}
		if w := n.EEPROM().MaxWriteCount(); w > 1 {
			return fmt.Errorf("node %v rewrote EEPROM (max %d writes)", n.ID(), w)
		}
		if r.Setup.Protocol == ProtocolDeluge {
			continue
		}
		data, err := r.Image.Reassemble(func(seg, pkt int) []byte {
			return n.EEPROM().Read(seg, pkt)
		})
		if err != nil {
			return fmt.Errorf("node %v: %w", n.ID(), err)
		}
		if !r.Image.Verify(data) {
			return fmt.Errorf("node %v: image mismatch", n.ID())
		}
	}
	return nil
}
