// Package scenario assembles complete simulation runs from a declarative
// configuration — area, node count, mobility, group, protocol, traffic —
// executes them, and fans parameter sweeps out over a worker pool.
//
// A single run is strictly deterministic in its seed; sweeps are
// embarrassingly parallel across (point, seed) pairs, which is where the
// repository exploits multicore hardware.
package scenario

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/flood"
	"repro/internal/geom"
	"repro/internal/maodv"
	"repro/internal/medium"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/netsim"
	"repro/internal/odmrp"
	"repro/internal/packet"
	"repro/internal/runerr"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// ProtocolKind names a runnable protocol.
type ProtocolKind int

// The runnable protocols.
const (
	SSSPST ProtocolKind = iota // hop metric
	SSSPSTT
	SSSPSTF
	SSSPSTE
	SSMST // minimax-link extension (paper ref [14])
	MAODV
	ODMRP
	Flood
)

var protoNames = [...]string{"SS-SPST", "SS-SPST-T", "SS-SPST-F", "SS-SPST-E", "SS-MST", "MAODV", "ODMRP", "FLOOD"}

// String implements fmt.Stringer with the paper's protocol names.
func (k ProtocolKind) String() string {
	if int(k) < len(protoNames) {
		return protoNames[k]
	}
	return fmt.Sprintf("Protocol(%d)", int(k))
}

// SelfStabilizing reports whether the protocol is in the SS-SPST family.
func (k ProtocolKind) SelfStabilizing() bool { return k <= SSMST }

// Variant returns the core metric variant for SS family kinds.
func (k ProtocolKind) Variant() core.Variant {
	switch k {
	case SSSPST:
		return core.Hop
	case SSSPSTT:
		return core.TxLink
	case SSSPSTF:
		return core.Farthest
	case SSSPSTE:
		return core.EnergyAware
	case SSMST:
		return core.MST
	default:
		panic("scenario: not an SS-SPST variant: " + k.String())
	}
}

// MobilityKind selects the movement model.
type MobilityKind int

// Supported mobility models.
const (
	RandomWaypoint MobilityKind = iota
	RandomDirection
	Static
	GaussMarkov
	RPGM
	Manhattan
)

var mobilityNames = [...]string{
	"rwp", "random-direction", "static", "gauss-markov", "rpgm", "manhattan",
}

// AllMobility lists every registered mobility model in declaration order.
func AllMobility() []MobilityKind {
	return []MobilityKind{RandomWaypoint, RandomDirection, Static, GaussMarkov, RPGM, Manhattan}
}

// String implements fmt.Stringer with the registry (flag) names.
func (k MobilityKind) String() string {
	if 0 <= int(k) && int(k) < len(mobilityNames) {
		return mobilityNames[k]
	}
	return fmt.Sprintf("Mobility(%d)", int(k))
}

// mobilityAliases maps every accepted spelling to its kind; the canonical
// names from mobilityNames are merged in by init.
var mobilityAliases = map[string]MobilityKind{
	"random-waypoint": RandomWaypoint,
	"waypoint":        RandomWaypoint,
	"rdir":            RandomDirection,
	"gm":              GaussMarkov,
	"gauss":           GaussMarkov,
	"group":           RPGM,
	"grid":            Manhattan,
}

func init() {
	for i, n := range mobilityNames {
		mobilityAliases[n] = MobilityKind(i)
	}
}

// ParseMobility resolves a model name (canonical or alias, case
// insensitive) to its kind.
func ParseMobility(name string) (MobilityKind, error) {
	k, ok := mobilityAliases[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return 0, fmt.Errorf("scenario: unknown mobility model %q (valid: %s)",
			name, strings.Join(mobilityNames[:], ", "))
	}
	return k, nil
}

// Config is one complete scenario. The zero value is not runnable; start
// from Default.
type Config struct {
	Seed     uint64
	Protocol ProtocolKind

	// Topology.
	N        int
	AreaSide float64

	// Mobility.
	Mobility  MobilityKind
	VMin      float64
	VMax      float64
	Pause     float64
	Positions []geom.Point // used by Static; nil → uniform random

	// Per-model mobility parameters; zero values select the documented
	// defaults so hand-built configs keep working — except GMAlpha, where
	// 0 is itself meaningful (memoryless Gauss-Markov) and the 0.75
	// default is set by Default() instead.
	//
	// GMAlpha is the Gauss-Markov memory α ∈ [0,1); GMStep its
	// discretization step in seconds (0 → 1).
	GMAlpha float64
	GMStep  float64
	// GroupCount and GroupRadius parameterize RPGM (0 → 4 groups, radius
	// AreaSide/6).
	GroupCount  int
	GroupRadius float64
	// StreetSpacing is the Manhattan grid pitch in metres (0 → AreaSide/5).
	StreetSpacing float64

	// Multicast group: the source plus GroupSize receivers.
	GroupSize int
	// Groups is the number of concurrent multicast groups (topics)
	// multiplexed over each node's radio; 0 or 1 runs the single-group
	// scenario unchanged. Group 0 is always the legacy group (source node
	// 0, GroupSize receivers, RateBps traffic); higher groups draw their
	// own source and members and scale their size and rate by the Zipf
	// popularity of their rank.
	Groups int
	// ZipfS is the popularity skew across groups: group g carries
	// unnormalized weight (g+1)^-ZipfS for its member-set size, source
	// rate, and churn share. 0 means uniform; Default sets 1.0. Ignored
	// with fewer than two groups.
	ZipfS float64
	// MemberChurnInterval, when > 0, swaps one random member for a random
	// non-member every interval: group size stays constant while the
	// membership set rotates, exercising the pruning machinery's dynamic
	// join/leave path. With multiple groups each tick first picks the
	// churning group by Zipf popularity, so hot topics also churn most.
	MemberChurnInterval float64

	// Traffic.
	RateBps      float64
	PayloadBytes int

	// Protocol timers.
	BeaconInterval float64

	// SSCore is the SS-SPST configuration template; Variant and
	// BeaconInterval are always overridden from this scenario config.
	// Default() sets the paper-faithful combination (hop-cap loop guard,
	// no make-before-break); the ablation experiments flip these to the
	// library's enhanced defaults.
	SSCore core.Config

	// Channel and energy.
	Medium medium.Config

	// Run control.
	Duration float64
	// Warmup delays metric collection start: ignored in this minimal
	// reproduction of the paper (which measures whole runs including the
	// stabilization transient), kept for ablations.
	Warmup float64
	// SampleInterval paces the availability sampler; 0 → beacon interval.
	SampleInterval float64
	// Battery joules per node; 0 means unlimited (negative rejected by
	// Validate). Finite reserves enable the network-lifetime metrics:
	// dead nodes, first/half-death times, and the dead-fraction timeline.
	Battery float64

	// Faults configures the deterministic fault processes (Gilbert-Elliott
	// bursty loss, crash/reboot node faults, partition windows). The zero
	// value injects nothing and draws nothing, so fault-free runs stay
	// bit-identical with earlier builds. Enabling any fault also switches
	// on the SS-SPST bounded join retry (graceful degradation under loss).
	Faults faults.Config

	// EventBudget bounds the number of simulator events one run may fire
	// before it is aborted as a failed result — the watchdog that turns a
	// runaway run into a diagnosable error instead of a hung sweep worker.
	// 0 derives a generous default from N and Duration (orders of
	// magnitude above any legitimate run).
	EventBudget uint64
	// Deadline, when > 0, bounds one replication's wall-clock execution
	// time in seconds. Unlike the event budget it catches runs that are
	// slow rather than busy; expiry surfaces as a runerr.ErrDeadline
	// failed replication, retryable (load-dependent) but never classified
	// deterministic.
	Deadline float64
	// StallEvents bounds the number of consecutive events fired at one
	// simulated instant before the run is aborted as livelocked
	// (runerr.ErrStall) — a zero-delay self-rescheduling cycle freezes
	// the clock and would otherwise burn the whole event budget. 0 means
	// DefaultStallEvents; legitimate same-instant cascades (protocol
	// floods reacting to one reception) stay far below it.
	StallEvents uint64
	// Check selects the end-of-run invariant tier; the zero value is
	// CheckCheap (always-on conservation laws). See CheckTier.
	Check CheckTier
}

// DefaultStallEvents is the stall detector's default streak limit: far
// above any legitimate same-instant event cascade (bounded by a few
// events per node per frame), far below the event budget.
const DefaultStallEvents = 1 << 20

// Default returns the paper's baseline scenario: 750 m × 750 m, 50 nodes,
// random waypoint at 1 m/s minimum, 20 receivers, 64 kb/s CBR of 512-byte
// packets, 2 s beacons, 1800 s (callers shorten Duration for tests).
func Default() Config {
	return Config{
		Seed:           1,
		Protocol:       SSSPSTE,
		N:              50,
		AreaSide:       750,
		Mobility:       RandomWaypoint,
		VMin:           1,
		VMax:           5,
		Pause:          2,
		GroupSize:      20,
		ZipfS:          1.0,
		GMAlpha:        0.75,
		RateBps:        64e3,
		PayloadBytes:   512,
		BeaconInterval: 2,
		// Paper-faithful switching cost (no make-before-break); the
		// path-vector loop guard is applied uniformly to all four
		// variants (see DESIGN.md — with the paper's bare hop-cap,
		// count-to-infinity outages dominate every energy metric's
		// delivery ratio and the comparison degenerates). The hop-cap
		// mode remains available as an ablation.
		SSCore: core.Config{
			LoopGuard:       core.LoopGuardPathVector,
			MakeBeforeBreak: false,
		},
		Medium:   medium.DefaultConfig(),
		Duration: 1800,
	}
}

// Result couples a run's summary with diagnostic channel statistics.
// A non-nil Err marks a failed replication (config error, runaway-run
// watchdog, or a panic isolated by the sweep engine); its Summary and
// Medium fields are zero and must not join metric pools.
type Result struct {
	Config  Config
	Summary metrics.Summary
	Medium  medium.Stats
	// PerGroup holds one summary per multicast group (len = effective
	// group count, ≥ 1): the group's traffic counters, service samples
	// and attributed energy spend. Node-lifecycle fields (death
	// landmarks, fault counters) live in Summary only. Empty on failed
	// runs.
	PerGroup []metrics.Summary
	// Attempts counts how many times the sweep engine ran this job under
	// its bounded-retry policy: 1 for a first-try success (0 in results
	// not produced by the engine), more when earlier attempts failed and
	// were retried.
	Attempts int
	Err      error
}

// Cost is the expected cost of running cfg, N·Duration in node-seconds.
// The engine's longest-job-first queue and shard.Partition both rank jobs
// by it.
func (cfg Config) Cost() float64 { return float64(cfg.N) * cfg.Duration }

// Validate reports the first nonsensical setting in cfg, or nil. Run
// calls it and panics on a broken config with the validation message —
// far clearer than the index-out-of-range it would otherwise hit deep in
// group selection. GroupSize larger than N-1 is not an error: Run clamps
// it to "everyone but the source" (the paper's own densest setting).
func (cfg Config) Validate() error {
	if cfg.N < 2 {
		return fmt.Errorf("scenario: need at least 2 nodes (a source and a receiver), got N=%d", cfg.N)
	}
	if cfg.AreaSide <= 0 {
		return fmt.Errorf("scenario: AreaSide must be positive, got %v", cfg.AreaSide)
	}
	if cfg.GroupSize < 1 {
		return fmt.Errorf("scenario: GroupSize must be at least 1, got %d", cfg.GroupSize)
	}
	if cfg.Groups < 0 || cfg.Groups > 256 {
		return fmt.Errorf("scenario: Groups must be in [0, 256] (0 = single group; packet group ids are 8-bit), got %d", cfg.Groups)
	}
	if cfg.ZipfS < 0 {
		return fmt.Errorf("scenario: ZipfS must be >= 0 (0 = uniform popularity), got %v", cfg.ZipfS)
	}
	if cfg.Mobility != Static {
		if cfg.VMin <= 0 {
			return fmt.Errorf("scenario: VMin must be > 0 (Yoon/Liu/Noble fix), got %v", cfg.VMin)
		}
		if cfg.VMax < cfg.VMin {
			return fmt.Errorf("scenario: VMax %v < VMin %v", cfg.VMax, cfg.VMin)
		}
	}
	// Per-model parameters (zero always means "use the default").
	switch cfg.Mobility {
	case GaussMarkov:
		if cfg.GMAlpha < 0 || cfg.GMAlpha >= 1 {
			return fmt.Errorf("scenario: GMAlpha must be in [0,1), got %v", cfg.GMAlpha)
		}
		if cfg.GMStep < 0 {
			return fmt.Errorf("scenario: GMStep must be >= 0, got %v", cfg.GMStep)
		}
	case RPGM:
		if cfg.GroupCount < 0 {
			return fmt.Errorf("scenario: GroupCount must be >= 0, got %d", cfg.GroupCount)
		}
		if cfg.GroupRadius < 0 {
			return fmt.Errorf("scenario: GroupRadius must be >= 0, got %v", cfg.GroupRadius)
		}
	case Manhattan:
		if cfg.StreetSpacing < 0 || cfg.StreetSpacing > cfg.AreaSide {
			return fmt.Errorf("scenario: StreetSpacing must be in (0, AreaSide] (need a 2x2 street grid), got %v", cfg.StreetSpacing)
		}
	}
	if cfg.Duration <= 0 {
		return fmt.Errorf("scenario: Duration must be positive, got %v", cfg.Duration)
	}
	// Churn and lifetime knobs (both swept by figures 18–19): zero always
	// means "off"/"unlimited"; negatives are config typos, not settings.
	if cfg.MemberChurnInterval < 0 {
		return fmt.Errorf("scenario: MemberChurnInterval must be >= 0 (0 = no churn), got %v", cfg.MemberChurnInterval)
	}
	if cfg.Battery < 0 {
		return fmt.Errorf("scenario: Battery must be >= 0 joules (0 = unlimited), got %v", cfg.Battery)
	}
	if cfg.SampleInterval < 0 {
		return fmt.Errorf("scenario: SampleInterval must be >= 0 (0 = beacon interval), got %v", cfg.SampleInterval)
	}
	// Fault knobs follow the same convention: zero means "off", loss
	// probabilities live in [0,1], and partition windows must fit the run.
	if err := cfg.Faults.Validate(cfg.Duration); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if cfg.Deadline < 0 {
		return fmt.Errorf("scenario: Deadline must be >= 0 wall-clock seconds (0 = unlimited), got %v", cfg.Deadline)
	}
	if cfg.Check < CheckCheap || cfg.Check > CheckOff {
		return fmt.Errorf("scenario: invalid Check tier %d (want CheckCheap, CheckFull or CheckOff)", int(cfg.Check))
	}
	return nil
}

// buildMobility constructs cfg's movement model, filling in the
// documented per-model parameter defaults.
func buildMobility(cfg Config, area geom.Rect, root *xrand.RNG) mobility.Model {
	switch cfg.Mobility {
	case RandomWaypoint:
		return mobility.NewRandomWaypoint(area, cfg.VMin, cfg.VMax, cfg.Pause, root.Split("mobility"))
	case RandomDirection:
		return mobility.NewRandomDirection(area, cfg.VMin, cfg.VMax, cfg.Pause, root.Split("mobility"))
	case GaussMarkov:
		step := cfg.GMStep
		if step == 0 {
			step = 1
		}
		return mobility.NewGaussMarkov(area, cfg.VMin, cfg.VMax, cfg.GMAlpha, step, root.Split("mobility"))
	case RPGM:
		groups := cfg.GroupCount
		if groups == 0 {
			groups = 4
		}
		radius := cfg.GroupRadius
		if radius == 0 {
			radius = cfg.AreaSide / 6
		}
		return mobility.NewRPGM(area, cfg.VMin, cfg.VMax, groups, radius, root.Split("mobility"))
	case Manhattan:
		spacing := cfg.StreetSpacing
		if spacing == 0 {
			spacing = cfg.AreaSide / 5
		}
		return mobility.NewManhattan(area, cfg.VMin, cfg.VMax, cfg.Pause, spacing, root.Split("mobility"))
	case Static:
		pts := cfg.Positions
		if pts == nil {
			r := root.Split("static-pos")
			pts = make([]geom.Point, cfg.N)
			for i := range pts {
				pts[i] = geom.Point{X: r.Range(0, cfg.AreaSide), Y: r.Range(0, cfg.AreaSide)}
			}
		}
		return mobility.Static{Points: pts}
	default:
		panic("scenario: unknown mobility model")
	}
}

// RunContext is a reusable run arena — one per sweep worker. Its Run
// resets the simulator, mobility tracker, network and SS-SPST protocol
// instances in place instead of reallocating them, so replication k+1
// inherits replication k's grown storage: event-queue backing arrays and
// freelist, medium queues/registries/frame pools, neighbour tables,
// dedup-map buckets and position memos. Steady-state allocation across a
// sweep collapses to a small fixed per-run setup cost, taking the
// garbage collector off the sweep critical path.
//
// A RunContext is single-goroutine and its results are bit-identical to
// fresh-context runs (TestArenaReuseEquivalence).
type RunContext struct {
	sim     *sim.Simulator
	tracker *mobility.Tracker
	net     *netsim.Network
	// ssPool holds one reusable SS-SPST instance per protocol slot,
	// indexed group*N + node id; other protocol families allocate per run
	// (their instances are small).
	ssPool []*core.Protocol
	// replay is the reusable cursor for trace-driven runs (RunTraced).
	replay *mobility.Replay
	// groupCfg is the reusable per-run group table handed to netsim.
	groupCfg []netsim.GroupConfig
}

// NewRunContext returns an empty arena; the first Run populates it.
func NewRunContext() *RunContext { return &RunContext{} }

// Run executes one scenario to completion in a fresh arena. Callers
// running many scenarios on one goroutine should hold a RunContext and
// use its Run instead.
func Run(cfg Config) Result { return NewRunContext().Run(cfg) }

// RunE is Run with errors returned instead of panicking: a bad config, a
// mismatched trace or an unknown protocol comes back as (Result{Err: e},
// e). CLIs use it to print a message and exit 1 instead of a stack trace.
func RunE(cfg Config) (Result, error) { return NewRunContext().RunE(cfg) }

// Run executes one scenario to completion, reusing the arena.
func (rc *RunContext) Run(cfg Config) Result { return rc.RunTraced(cfg, nil) }

// RunE is the error-returning form of Run; see the package-level RunE.
func (rc *RunContext) RunE(cfg Config) (Result, error) { return rc.RunTracedE(cfg, nil) }

// RunTraced is Run over a shared mobility trace: instead of building
// cfg's movement model, the run replays trace through the arena's reusable
// cursor. The trace must have been recorded for exactly cfg's movement
// subset (TraceKey equality — the sweep engine guarantees it); results are
// bit-identical to Run because replayed legs are the recorded values
// verbatim and model construction draws nothing from the run's root RNG
// streams. A nil trace is plain Run.
//
// RunTraced panics on a broken config, preserving the historical contract;
// RunTracedE is the error-returning path underneath it.
func (rc *RunContext) RunTraced(cfg Config, trace *mobility.Recorded) Result {
	res, err := rc.RunTracedE(cfg, trace)
	if err != nil {
		panic(err.Error())
	}
	return res
}

// failed packages a setup or watchdog error as a failed Result.
func failed(cfg Config, err error) (Result, error) {
	return Result{Config: cfg, Err: err}, err
}

// RunTracedE is RunTraced with returned errors: configuration problems
// (Validate failures, trace/node-count mismatches, unknown protocols) and
// watchdog aborts produce (Result{Err: e}, e) instead of a panic, so a
// sweep degrades to a partial grid rather than dying. The arena stays
// reusable after any returned error.
func (rc *RunContext) RunTracedE(cfg Config, trace *mobility.Recorded) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return failed(cfg, runerr.Mark(runerr.ErrSetup, err))
	}
	// Clamp, don't fail: a sweep asking for more receivers than exist
	// means "everyone but the source".
	if cfg.GroupSize > cfg.N-1 {
		cfg.GroupSize = cfg.N - 1
	}

	if rc.sim == nil {
		rc.sim = sim.New(cfg.Seed)
	} else {
		rc.sim.Reset(cfg.Seed)
	}
	s := rc.sim
	root := xrand.New(cfg.Seed)

	area := geom.Square(cfg.AreaSide)
	var model mobility.Model
	if trace != nil {
		if trace.N() != cfg.N {
			return failed(cfg, runerr.Mark(runerr.ErrSetup,
				fmt.Errorf("scenario: trace node count %d does not match config N=%d", trace.N(), cfg.N)))
		}
		if rc.replay == nil {
			rc.replay = trace.Replay()
		} else {
			rc.replay.Reset(trace)
		}
		model = rc.replay
	} else {
		model = buildMobility(cfg, area, root)
	}
	if rc.tracker == nil {
		rc.tracker = mobility.NewTracker(cfg.N, model)
	} else {
		rc.tracker.Reset(cfg.N, model)
	}
	tracker := rc.tracker

	// Group selection. Group 0 is always the legacy group — source node
	// 0, receivers drawn uniformly from the rest on the historical
	// "group" stream — so single-group runs are bit-identical with
	// pre-multiplexing builds. Additional groups draw from their own
	// per-group streams forked off a separate label, so enabling them
	// consumes nothing from any legacy stream.
	k := cfg.Groups
	if k < 1 {
		k = 1
	}
	src := packet.NodeID(0)
	perm := root.Split("group").Perm(cfg.N - 1)
	members := make([]packet.NodeID, 0, cfg.GroupSize)
	for _, idx := range perm[:cfg.GroupSize] {
		members = append(members, packet.NodeID(idx+1))
	}
	rc.groupCfg = append(rc.groupCfg[:0], netsim.GroupConfig{Source: src, Members: members})
	var zipf *xrand.Zipf
	if k > 1 {
		zipf = xrand.NewZipf(k, cfg.ZipfS)
		multi := root.Split("groups.multi")
		for g := 1; g < k; g++ {
			gr := multi.SplitIndex(g)
			// Sources may collide across groups on purpose: one node
			// sourcing several topics is exactly the multiplexing the
			// refactor models.
			gsrc := packet.NodeID(gr.Intn(cfg.N))
			size := zipfGroupSize(cfg.GroupSize, zipf.Weight(g), cfg.N)
			gm := make([]packet.NodeID, 0, size)
			for _, idx := range gr.Perm(cfg.N - 1)[:size] {
				id := packet.NodeID(idx)
				if id >= gsrc {
					id++ // skip the group's source
				}
				gm = append(gm, id)
			}
			rc.groupCfg = append(rc.groupCfg, netsim.GroupConfig{Source: gsrc, Members: gm})
		}
	}

	vmax := cfg.VMax
	if cfg.Mobility == Static {
		vmax = 0
	}
	// Fault processes ride through the medium config: the Gilbert-Elliott
	// chains and the partition cut act at delivery time, where the physical
	// effects they model (burst fades, geometric obstacles) live.
	mcfg := cfg.Medium
	mcfg.GELoss = cfg.Faults.Loss
	mcfg.Partition = cfg.Faults.Partition
	mcfg.PartitionArea = cfg.AreaSide
	ncfg := netsim.Config{
		N:            cfg.N,
		Groups:       rc.groupCfg,
		Medium:       mcfg,
		Battery:      cfg.Battery,
		PayloadBytes: cfg.PayloadBytes,
		Area:         area,
		VMax:         vmax,
		StaticNodes:  cfg.Mobility == Static,
	}
	if rc.net == nil {
		rc.net = netsim.New(s, tracker, ncfg)
	} else {
		rc.net.Reset(s, tracker, ncfg)
	}
	net := rc.net

	if err := rc.attachProtocols(net, cfg); err != nil {
		return failed(cfg, runerr.Mark(runerr.ErrSetup, err))
	}
	net.Start()

	if cfg.Faults.CrashMTBF > 0 {
		rc.attachCrashFaults(net, cfg, root.Split("faults.crash"))
	}

	// One CBR source per group, attached to the group's source slot; a
	// group's rate scales with its Zipf popularity (group 0 keeps the
	// configured rate exactly — its weight is always 1).
	for g := 0; g < k; g++ {
		rate := cfg.RateBps
		if zipf != nil {
			rate = cfg.RateBps * zipf.Weight(g)
		}
		traffic.CBR{
			RateBps:      rate,
			PayloadBytes: cfg.PayloadBytes,
			Start:        0,
		}.Attach(net.Nodes[net.Groups[g].Source].Slots[g])
	}

	if cfg.Protocol.SelfStabilizing() {
		interval := cfg.SampleInterval
		if interval == 0 {
			interval = cfg.BeaconInterval
		}
		attachAvailabilitySampler(net, interval)
	}

	if cfg.MemberChurnInterval > 0 {
		attachMembershipChurn(net, cfg.MemberChurnInterval, root.Split("churn"), zipf)
	}

	// Watchdog: bound the event count so a runaway run (a feedback loop
	// that floods the queue, a timer that reschedules itself at zero delay)
	// becomes a failed result instead of a hung sweep worker. The default
	// is orders of magnitude above any legitimate run's event count.
	budget := cfg.EventBudget
	if budget == 0 {
		budget = 50000 * uint64(cfg.N) * uint64(cfg.Duration+1)
	}
	s.SetBudget(budget)
	// Companion watchdogs: the stall detector catches a frozen clock long
	// before the budget would, and the wall-clock deadline catches runs
	// that are slow rather than busy. Both default on (the stall limit) or
	// off (the deadline); neither consumes RNG draws or schedules events,
	// so enabling them cannot perturb results.
	stall := cfg.StallEvents
	if stall == 0 {
		stall = DefaultStallEvents
	}
	s.SetStallLimit(stall)
	if cfg.Deadline > 0 {
		s.SetWallDeadline(time.Duration(cfg.Deadline * float64(time.Second)))
	}

	s.Run(cfg.Duration)
	switch {
	case s.BudgetExceeded():
		return failed(cfg, runerr.Mark(runerr.ErrBudget,
			fmt.Errorf("scenario: run exceeded event budget %d before t=%v (seed %d, %v, N=%d) — runaway event loop",
				budget, cfg.Duration, cfg.Seed, cfg.Protocol, cfg.N)))
	case s.Stalled():
		return failed(cfg, runerr.Mark(runerr.ErrStall,
			fmt.Errorf("scenario: run stalled: %d consecutive events at t=%v without the clock advancing (seed %d, %v, N=%d) — livelock",
				stall, s.HaltedAt(), cfg.Seed, cfg.Protocol, cfg.N)))
	case s.DeadlineExceeded():
		return failed(cfg, runerr.Mark(runerr.ErrDeadline,
			fmt.Errorf("scenario: run exceeded wall-clock deadline %gs at t=%v of %v (seed %d, %v, N=%d)",
				cfg.Deadline, s.HaltedAt(), cfg.Duration, cfg.Seed, cfg.Protocol, cfg.N)))
	}
	res := Result{
		Config:   cfg,
		Summary:  net.Summarize(),
		Medium:   net.Medium.Stats(),
		PerGroup: net.Collector.SummarizeGroups(nil),
	}
	if cfg.Check != CheckOff {
		if err := checkInvariants(cfg, net, res.Summary, res.PerGroup); err != nil {
			return failed(cfg, err)
		}
	}
	return res, nil
}

// zipfGroupSize scales the configured group size by a group's Zipf weight,
// clamped to [1, n-1] (at least one receiver, at most everyone but the
// source).
func zipfGroupSize(base int, w float64, n int) int {
	size := int(float64(base)*w + 0.5)
	if size < 1 {
		size = 1
	}
	if size > n-1 {
		size = n - 1
	}
	return size
}

// protocolFor builds (or resets, for the pooled SS family) the protocol
// instance for slot i (= group*N + node id). Fault-injected scenarios
// enable the SS-SPST bounded join retry so a lost JOIN round degrades to
// a delayed join instead of an orphaned member.
func (rc *RunContext) protocolFor(cfg Config, i int) (netsim.Protocol, error) {
	switch cfg.Protocol {
	case SSSPST, SSSPSTT, SSSPSTF, SSSPSTE, SSMST:
		ccfg := cfg.SSCore
		ccfg.Variant = cfg.Protocol.Variant()
		ccfg.BeaconInterval = cfg.BeaconInterval
		if cfg.Faults.Any() {
			ccfg.JoinRetry = true
		}
		if p := rc.ssPool[i]; p != nil {
			p.Reset(ccfg, cfg.N)
			return p, nil
		}
		p := core.New(ccfg, cfg.N)
		rc.ssPool[i] = p
		return p, nil
	case MAODV:
		return maodv.New(maodv.DefaultConfig()), nil
	case ODMRP:
		return odmrp.New(odmrp.DefaultConfig()), nil
	case Flood:
		return flood.New(), nil
	default:
		return nil, fmt.Errorf("scenario: unknown protocol %v", cfg.Protocol)
	}
}

// attachProtocols instantiates cfg.Protocol on every slot of every node
// (one instance per group), reusing the arena's SS-SPST instances (reset
// in place) when the scenario runs the SS family.
func (rc *RunContext) attachProtocols(net *netsim.Network, cfg Config) error {
	k := net.GroupCount()
	if cfg.Protocol.SelfStabilizing() {
		for len(rc.ssPool) < k*cfg.N {
			rc.ssPool = append(rc.ssPool, nil)
		}
	}
	for g := 0; g < k; g++ {
		for i := 0; i < cfg.N; i++ {
			p, err := rc.protocolFor(cfg, g*cfg.N+i)
			if err != nil {
				return err
			}
			net.SetGroupProtocol(g, packet.NodeID(i), p)
		}
	}
	return nil
}

// attachCrashFaults precomputes each node's crash/reboot schedule from its
// own fault stream and installs the transitions as simulator events. The
// schedule is a pure function of the seed — runtime state never feeds back
// into fault timing — so fault trajectories are identical across worker
// counts and arena reuse; only the fire-time guards (battery-dead or
// already-down nodes can't crash; dead nodes can't recover) consult state.
// The source (node 0) is excluded: a crashed source would silence the
// traffic generator and every protocol equally, measuring nothing.
func (rc *RunContext) attachCrashFaults(net *netsim.Network, cfg Config, root *xrand.RNG) {
	for i := 1; i < cfg.N; i++ {
		events := cfg.Faults.CrashSchedule(root.SplitIndex(i), cfg.Duration)
		id := packet.NodeID(i)
		for _, ev := range events {
			if ev.Down {
				net.Sim.At(ev.At, func() { net.Crash(id) })
			} else {
				net.Sim.At(ev.At, func() {
					if net.Recover(id) {
						rc.restartProtocol(net, cfg, id)
					}
				})
			}
		}
	}
}

// restartProtocol re-runs the protocol join path on a freshly recovered
// node: the crash dropped all protocol state, so the node comes back as a
// newborn in every group it hosts a slot for — SS-SPST re-adopts a parent
// from the next beacon (with retry pressure if faults keep eating them),
// ODMRP/MAODV relearn routes from the next refresh flood. Every group's
// instance is reinstalled before any is started, mirroring the initial
// attach order.
func (rc *RunContext) restartProtocol(net *netsim.Network, cfg Config, id packet.NodeID) {
	for g := 0; g < net.GroupCount(); g++ {
		p, err := rc.protocolFor(cfg, g*cfg.N+int(id))
		if err != nil {
			return // unreachable: the initial attach validated cfg.Protocol
		}
		net.SetGroupProtocol(g, id, p)
	}
	net.StartNode(id)
}

// attachAvailabilitySampler probes, once per interval and per member,
// whether the multicast service reached that member during the preceding
// interval — the paper's unavailability ratio (Figure 8): the fraction of
// the multicast duration for which the service is effectively down while
// the protocol restabilizes. With CBR traffic far faster than the sample
// interval, a window with zero deliveries means the member's path was
// broken for essentially the whole window.
func attachAvailabilitySampler(net *netsim.Network, interval float64) {
	// One ticker serves every group (the ticker count feeds the
	// simulator's jitter-stream derivation, so multi-group runs must not
	// add tickers relative to single-group ones).
	net.Sim.Every(interval, 0, func() {
		now := net.Sim.Now()
		for g := range net.Groups {
			for _, m := range net.Groups[g].Members {
				// A battery-dead member is not a protocol outage: its radio is
				// permanently off, so no tree repair can ever reach it again.
				// Sampling it would conflate restabilization time (what the
				// unavailability ratio prices) with node death (what the
				// lifetime metrics — DeadNodes, FirstDeathS, the dead-fraction
				// timeline — report); lifetime runs would see unavailability
				// ratchet toward 1 as nodes die.
				if net.Nodes[m].Dead() {
					continue
				}
				// Baseline the outage clock at the member's join time: a node
				// that joined mid-window has a LastDelivery predating its
				// membership (or none at all), and counting that silence as an
				// outage would charge the protocol for time the member was not
				// even in the group.
				base := net.GroupJoinedAt(g, m)
				if last, ever := net.Collector.GroupLastDelivery(g, m); ever && last > base {
					base = last
				}
				net.Collector.GroupServiceSample(g, now-base > interval)
			}
		}
	})
}

// attachMembershipChurn swaps one member for one non-member every
// interval, keeping each group's size constant while rotating its
// membership. With several groups each tick first draws the churning
// group from the Zipf popularity (nil zipf = single-group run, no extra
// draw), so hot topics see proportionally more membership dynamics.
func attachMembershipChurn(net *netsim.Network, interval float64, r *xrand.RNG, zipf *xrand.Zipf) {
	// The non-member scratch is hoisted out of the tick: churn fires
	// hundreds of times per run and the candidate set is bounded by N,
	// so one buffer serves every tick without reallocating. One ticker
	// serves every group (see attachAvailabilitySampler).
	var outs []packet.NodeID
	net.Sim.Every(interval, 0.2, func() {
		g := 0
		if zipf != nil {
			g = zipf.Rank(r)
		}
		gs := &net.Groups[g]
		if len(gs.Members) == 0 {
			return
		}
		// Collect the group's non-members (excluding its source).
		// Battery-dead nodes are never candidates: swapping one in would
		// permanently wedge a group slot on a silent radio — the group
		// size invariant would hold on paper while the effective group
		// shrank for the rest of the run.
		outs = outs[:0]
		for _, n := range net.Nodes {
			// Crashed (down) nodes are skipped for the same reason as dead
			// ones; unlike death the exclusion is temporary — the node is a
			// candidate again after recovery.
			sl := n.Slots[g]
			if !sl.Member && !sl.Source && !n.Dead() && !net.IsDown(n.ID) {
				outs = append(outs, n.ID)
			}
		}
		if len(outs) == 0 {
			return
		}
		leave := gs.Members[r.Intn(len(gs.Members))]
		join := outs[r.Intn(len(outs))]
		net.SetGroupMember(g, leave, false)
		net.SetGroupMember(g, join, true)
	})
}

// ReplicationSeed derives the seed of replication i from a base seed via
// one SplitMix64 step: the golden-gamma increment followed by the full
// finalizer. The finalizer is a bijection, so two replications collide
// exactly when their pre-mix values base + γ·(i+1) do — i.e. when two base
// seeds differ by an exact multiple of γ ≈ 0.618·2⁶⁴. Because γ/2⁶⁴ is
// the golden ratio (whose continued fraction bounds how close k·γ can
// come to 0 mod 2⁶⁴), bases within ~10¹⁶ of each other can never collide
// for replication indices below a few thousand. The previous additive
// stride (base + i·1000003) collided whenever two sweep points' bases
// differed by a multiple of the stride — which nested seed derivations
// produced in practice.
// Replication 0 is the base seed itself, preserving two properties the
// suite relies on: RunSeeds(cfg, 1) reproduces Run(cfg) exactly, and
// sweep points sharing a base seed keep their common-random-numbers
// pairing for the first replication.
func ReplicationSeed(base uint64, i int) uint64 {
	if i == 0 {
		return base
	}
	const gamma = 0x9E3779B97F4A7C15
	z := base + gamma*uint64(i)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// RunSeeds runs cfg once per replication (seeds derived from cfg.Seed via
// ReplicationSeed) on the shared sweep engine and returns the pooled mean
// summary. Calls from inside a sweep worker drain their replications on
// the caller's own goroutine plus whatever engine workers are idle — no
// nested pool is ever spawned.
func RunSeeds(cfg Config, seeds int) metrics.Summary {
	cfgs := make([]Config, seeds)
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].Seed = ReplicationSeed(cfg.Seed, i)
	}
	results := Sweep(cfgs)
	// Failed replications (isolated panics, watchdog aborts) carry zero
	// summaries; pooling them would drag every mean toward zero. Skip them
	// — the pooled answer degrades to fewer replications.
	sums := make([]metrics.Summary, 0, len(results))
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		sums = append(sums, r.Summary)
	}
	return metrics.Mean(sums)
}
