// Package experiments regenerates every figure of the paper's evaluation
// (§6–7): the SS-SPST metric comparison (Figures 7–9), the beacon-interval
// study (Figures 10–11), and the cross-protocol comparison against MAODV
// and ODMRP (Figures 12–16), plus the worked example of Figures 1–6 and
// the ablations listed in DESIGN.md.
//
// Figures are declarative: each one describes its grid of sweep rows
// (protocol × x-axis templates) and how to read metrics out of a row's
// summaries. Generate flattens every requested figure into one batch for
// the scenario package's global sweep engine — all points × seeds in a
// single cost-ordered queue on one persistent worker pool, with the runs
// of each (mobility, seed) point sharing a recorded movement trace — and
// aggregates each point as its replications land, so no more than the
// in-flight rows' summaries are ever retained.
//
// Each FigureN function returns a Table whose series mirror the curves in
// the paper's plot; cmd/figures prints them, bench_test.go times them, and
// EXPERIMENTS.md records paper-vs-measured shapes.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/scenario"
)

// Point is one (x, y) sample of a curve. CI, when non-zero, is the
// half-width of the 95% confidence interval on y across the seeds that
// were averaged into it. NOK/NTotal report the replication coverage
// behind the point: NOK seeds survived of NTotal scheduled. Under the
// bounded-retry policy a persistently failing replication is excluded
// rather than fabricated, so NOK < NTotal marks a degraded point.
type Point struct {
	X  float64
	Y  float64
	CI float64

	NOK    int
	NTotal int
}

// Table is one reproduced figure: named series over a common x-axis.
type Table struct {
	Title  string
	XLabel string
	YLabel string
	Series map[string][]Point
	// Order fixes the series printing order (paper legend order).
	Order []string
	// XTicks, when set, labels a categorical x-axis: XTicks[i] names the
	// point with X == i (the cross-mobility table uses model names).
	XTicks []string
	// Notes records degradations worth surfacing next to the data — rows
	// whose every replication failed plot no point and leave a note here.
	Notes []string
}

// picker extracts one plotted metric from a summary; ok reports whether
// the run actually observed it (its denominator is non-zero), so CI
// samples never ingest the zero placeholder of a run that has no such
// observation.
type picker func(metrics.Summary) (v float64, ok bool)

// reduce pools the per-seed summaries of one sweep row into its plotted
// value (via the bias-corrected metrics.Mean) and the CI95 half-width of
// the picked metric over the seeds that observed it.
func reduce(ss []metrics.Summary, pick picker) (y, ci float64) {
	var sample metrics.Sample
	for _, s := range ss {
		if v, ok := pick(s); ok {
			sample.Add(v)
		}
	}
	y, _ = pick(metrics.Mean(ss))
	return y, sample.CI95()
}

// Options trims experiment cost. The paper runs 1800 s simulations; tests
// and benchmarks use shorter horizons with fewer seeds — curve shapes are
// stable well before the full duration.
type Options struct {
	Duration float64 // simulated seconds per run
	Seeds    int     // runs averaged per point
	BaseSeed uint64
}

// Full mirrors the paper's setup.
func Full() Options { return Options{Duration: 1800, Seeds: 5, BaseSeed: 1} }

// Quick is the CI-friendly setting used by tests and benchmarks.
func Quick() Options { return Options{Duration: 180, Seeds: 2, BaseSeed: 1} }

// row is one sweep row of a figure: a config template at one x position,
// replicated over the options' seeds, feeding one or more series through
// their pickers (the cross-mobility table reads four metrics out of the
// same runs).
type row struct {
	x    float64
	cfg  scenario.Config
	outs []rowOut
}

type rowOut struct {
	series string
	pick   picker
	// tbl indexes the spec's table the series belongs to; 0 for the
	// single-table figures. The lifetime figure 19 feeds one grid of runs
	// into two tables (timeline + per-protocol summary) without running
	// the grid twice.
	tbl int
	// timeline expands the run's dead-fraction timeline into one point
	// per lifetime bucket (x = bucket end time) instead of one picked
	// scalar at the row's x.
	timeline bool
}

// figSpec is one declared figure: its table skeletons plus the rows that
// feed them. Most figures own exactly one table.
type figSpec struct {
	tbls []Table
	rows []row
}

// velocities is the paper's mobility sweep (max speed, m/s).
var velocities = []float64{1, 4, 8, 12, 16, 20}

// groupSizes is the paper's multicast group sweep.
var groupSizes = []int{10, 20, 30, 40, 50}

// beaconIntervals is the paper's beacon sweep (seconds).
var beaconIntervals = []float64{1, 1.5, 2, 2.5, 3, 3.5, 4}

// ssFamily is the Figure 7–9 protocol set.
var ssFamily = []scenario.ProtocolKind{
	scenario.SSSPSTE, scenario.SSSPST, scenario.SSSPSTT, scenario.SSSPSTF,
}

// allFour is the Figure 12–16 protocol set.
var allFour = []scenario.ProtocolKind{
	scenario.MAODV, scenario.SSSPST, scenario.SSSPSTE, scenario.ODMRP,
}

func pdr(s metrics.Summary) (float64, bool)      { return s.PDR, s.Expected > 0 }
func unavail(s metrics.Summary) (float64, bool)  { return s.Unavailability, s.UnavailSamples > 0 }
func energyMJ(s metrics.Summary) (float64, bool) { return s.EnergyPerDeliveredJ * 1e3, s.Delivered > 0 }
func delayMS(s metrics.Summary) (float64, bool)  { return s.AvgDelayS * 1e3, s.Delivered > 0 }
func ctrl(s metrics.Summary) (float64, bool)     { return s.CtrlPerDataByte, s.UniquePayloadBytes > 0 }

// Lifetime pickers (figure 19): each landmark is observed only by runs
// that actually reached it, so CI samples skip the runs where the network
// outlived the horizon.
func firstDeathS(s metrics.Summary) (float64, bool) { return s.FirstDeathS, s.FirstDeaths > 0 }
func halfDeathS(s metrics.Summary) (float64, bool)  { return s.HalfDeathS, s.HalfDeaths > 0 }
func halfDeadKB(s metrics.Summary) (float64, bool) {
	return s.HalfDeadDeliveredB / 1e3, s.HalfDeaths > 0
}
func deadFracEnd(s metrics.Summary) (float64, bool) {
	return s.DeadFrac[metrics.LifetimeBuckets-1], s.Nodes > 0
}

// velocitySpec declares a figure sweeping the given protocols over the
// velocity axis.
func velocitySpec(o Options, protos []scenario.ProtocolKind, pick picker, title, ylabel string) *figSpec {
	spec := &figSpec{tbls: []Table{{
		Title: title, XLabel: "max velocity (m/s)", YLabel: ylabel,
		Series: map[string][]Point{},
	}}}
	for _, p := range protos {
		spec.tbls[0].Order = append(spec.tbls[0].Order, p.String())
		for _, v := range velocities {
			cfg := scenario.Default()
			cfg.Duration = o.Duration
			cfg.Protocol = p
			cfg.VMax = v
			cfg.GroupSize = 20
			spec.rows = append(spec.rows, row{
				x: v, cfg: cfg, outs: []rowOut{{series: p.String(), pick: pick}},
			})
		}
	}
	return spec
}

// groupSpec declares a figure sweeping the given protocols over the
// group-size axis at fixed vmax.
func groupSpec(o Options, protos []scenario.ProtocolKind, vmax float64, pick picker, title, ylabel string) *figSpec {
	spec := &figSpec{tbls: []Table{{
		Title: title, XLabel: "multicast group size", YLabel: ylabel,
		Series: map[string][]Point{},
	}}}
	for _, p := range protos {
		spec.tbls[0].Order = append(spec.tbls[0].Order, p.String())
		for _, g := range groupSizes {
			cfg := scenario.Default()
			cfg.Duration = o.Duration
			cfg.Protocol = p
			cfg.VMax = vmax
			cfg.GroupSize = g
			if g >= cfg.N {
				cfg.GroupSize = cfg.N - 1 // everyone but the source
			}
			spec.rows = append(spec.rows, row{
				x: float64(g), cfg: cfg, outs: []rowOut{{series: p.String(), pick: pick}},
			})
		}
	}
	return spec
}

// beaconSpec declares a figure sweeping SS-SPST and SS-SPST-E over the
// beacon-interval axis at 5 m/s, the Figure 10–11 setup.
func beaconSpec(o Options, pick picker, title, ylabel string) *figSpec {
	spec := &figSpec{tbls: []Table{{
		Title: title, XLabel: "beacon interval (s)", YLabel: ylabel,
		Series: map[string][]Point{},
	}}}
	for _, p := range []scenario.ProtocolKind{scenario.SSSPSTE, scenario.SSSPST} {
		spec.tbls[0].Order = append(spec.tbls[0].Order, p.String())
		for _, b := range beaconIntervals {
			cfg := scenario.Default()
			cfg.Duration = o.Duration
			cfg.Protocol = p
			cfg.VMax = 5
			cfg.GroupSize = 20
			cfg.BeaconInterval = b
			spec.rows = append(spec.rows, row{
				x: b, cfg: cfg, outs: []rowOut{{series: p.String(), pick: pick}},
			})
		}
	}
	return spec
}

// DefaultMobilityKinds is the cross-mobility comparison's model set: the
// paper's own random waypoint plus the three models this repository adds.
func DefaultMobilityKinds() []scenario.MobilityKind {
	return []scenario.MobilityKind{
		scenario.RandomWaypoint, scenario.GaussMarkov, scenario.RPGM, scenario.Manhattan,
	}
}

// crossMobilitySpec declares the extension table beyond the paper: the
// baseline scenario (SS-SPST-E, 50 nodes, 20 receivers, 5 m/s) re-run
// under each mobility model, reporting the headline metrics side by side.
// Group mobility (RPGM) keeps receivers spatially coherent and is expected
// to be the friendliest to tree maintenance; Manhattan's street constraint
// the harshest.
func crossMobilitySpec(o Options, kinds []scenario.MobilityKind) *figSpec {
	if len(kinds) == 0 {
		kinds = DefaultMobilityKinds()
	}
	spec := &figSpec{tbls: []Table{{
		Title:  "Extension: cross-mobility comparison (SS-SPST-E, paper baseline)",
		XLabel: "mobility model",
		YLabel: "metric value",
		Series: map[string][]Point{},
		Order:  []string{"PDR", "energy/pkt (mJ)", "unavailability", "delay (ms)"},
	}}}
	outs := []rowOut{
		{series: "PDR", pick: pdr}, {series: "energy/pkt (mJ)", pick: energyMJ},
		{series: "unavailability", pick: unavail}, {series: "delay (ms)", pick: delayMS},
	}
	for ki, k := range kinds {
		spec.tbls[0].XTicks = append(spec.tbls[0].XTicks, k.String())
		cfg := scenario.Default()
		cfg.Duration = o.Duration
		cfg.Protocol = scenario.SSSPSTE
		cfg.Mobility = k
		cfg.VMax = 5
		spec.rows = append(spec.rows, row{x: float64(ki), cfg: cfg, outs: outs})
	}
	return spec
}

// extensionMSTSpec declares the SS-MST extension experiment (the paper's
// ref [14]) alongside the SPST family over the velocity axis.
func extensionMSTSpec(o Options) *figSpec {
	return velocitySpec(o, []scenario.ProtocolKind{
		scenario.SSSPST, scenario.SSSPSTE, scenario.SSMST,
	}, energyMJ,
		"Extension: SS-MST vs SS-SPST/SS-SPST-E, energy per packet vs velocity",
		"energy (mJ)")
}

// churnIntervals is the figure 18 membership-churn sweep: seconds between
// member swaps, fastest churn first. The x-axis is the interval itself —
// shorter interval = higher churn rate.
var churnIntervals = []float64{2, 5, 10, 20, 40}

// churnSpec declares figure 18 — the membership-churn sweep this
// repository adds beyond the paper: all four protocols at the paper
// baseline (5 m/s, 20 receivers) with the group rotating one member every
// MemberChurnInterval seconds. The paper's unavailability metric exists
// precisely to price membership change; this figure finally sweeps it.
// PDR and control overhead are read for every protocol; unavailability
// only for the SS family, whose availability sampler defines it.
func churnSpec(o Options) *figSpec {
	spec := &figSpec{tbls: []Table{{
		Title:  "Figure 18: PDR / unavailability / control overhead vs membership churn",
		XLabel: "churn interval (s)",
		YLabel: "metric value (per series)",
		Series: map[string][]Point{},
	}}}
	t := &spec.tbls[0]
	type metricOut struct {
		label  string
		pick   picker
		ssOnly bool
	}
	outs := []metricOut{
		{"PDR", pdr, false},
		{"unavail", unavail, true},
		{"ctrl/B", ctrl, false},
	}
	for _, mo := range outs {
		for _, p := range allFour {
			if mo.ssOnly && !p.SelfStabilizing() {
				continue
			}
			t.Order = append(t.Order, p.String()+" "+mo.label)
		}
	}
	for _, p := range allFour {
		for _, ci := range churnIntervals {
			cfg := scenario.Default()
			cfg.Duration = o.Duration
			cfg.Protocol = p
			cfg.VMax = 5
			cfg.GroupSize = 20
			cfg.MemberChurnInterval = ci
			r := row{x: ci, cfg: cfg}
			for _, mo := range outs {
				if mo.ssOnly && !p.SelfStabilizing() {
					continue
				}
				r.outs = append(r.outs, rowOut{series: p.String() + " " + mo.label, pick: mo.pick})
			}
			spec.rows = append(spec.rows, r)
		}
	}
	return spec
}

// lifetimeBattery scales the figure 19 battery reserve to the run horizon
// so depletion lands mid-run at any duration: 20 J carries the baseline
// traffic load for roughly 600 s, the calibration the lifetime example
// established.
func lifetimeBattery(o Options) float64 { return 20 * o.Duration / 600 }

// lifetimeSpec declares figure 19 — the network-lifetime study the paper
// motivates SS-SPST-E with (its refs [7][28]) but never measures: every
// node starts with the same finite battery and the four protocols are
// compared on how long the network stays useful. One grid of runs feeds
// two tables: (a) the dead-node fraction over time, one curve per
// protocol, from the collector's fixed-bucket death timeline; (b) the
// per-protocol lifetime summary — first-node-death time, half-dead time,
// payload delivered until half the network died, residual dead fraction
// and PDR.
func lifetimeSpec(o Options) *figSpec {
	spec := &figSpec{tbls: []Table{
		{
			Title:  "Figure 19a: dead-node fraction over time (finite batteries)",
			XLabel: "time (s)",
			YLabel: "fraction of nodes dead",
			Series: map[string][]Point{},
		},
		{
			Title:  "Figure 19b: network-lifetime summary (finite batteries)",
			XLabel: "protocol",
			YLabel: "metric value (per series)",
			Series: map[string][]Point{},
			Order: []string{
				"first death (s)", "half-dead (s)", "payload kB @ half-dead",
				"dead fraction @ end", "PDR",
			},
		},
	}}
	battery := lifetimeBattery(o)
	for pi, p := range allFour {
		spec.tbls[0].Order = append(spec.tbls[0].Order, p.String())
		spec.tbls[1].XTicks = append(spec.tbls[1].XTicks, p.String())
		cfg := scenario.Default()
		cfg.Duration = o.Duration
		cfg.Protocol = p
		cfg.VMax = 2
		cfg.GroupSize = 20
		cfg.Battery = battery
		spec.rows = append(spec.rows, row{
			x: float64(pi), cfg: cfg, outs: []rowOut{
				{series: p.String(), tbl: 0, timeline: true},
				{series: "first death (s)", tbl: 1, pick: firstDeathS},
				{series: "half-dead (s)", tbl: 1, pick: halfDeathS},
				{series: "payload kB @ half-dead", tbl: 1, pick: halfDeadKB},
				{series: "dead fraction @ end", tbl: 1, pick: deadFracEnd},
				{series: "PDR", tbl: 1, pick: pdr},
			},
		})
	}
	return spec
}

// groupCounts is the figure 21 concurrent-group sweep: the number of
// independent multicast groups multiplexed over each node's single radio.
// K=1 is the paper's workload; the axis doubles up to 16 topics.
var groupCounts = []int{1, 2, 4, 8, 16}

// multiGroupSpec declares figure 21 — the many-group pub/sub workload this
// repository adds beyond the paper: all four protocols at the paper
// baseline (5 m/s, 20 receivers in the primary group) with K concurrent
// groups sharing every node's radio, battery and mobility. Per-topic
// popularity is Zipf-skewed (s=1), so group 0 keeps the paper's exact
// member count and source rate while later topics shrink; the summary
// metrics pool all topics. PDR and control overhead are read for every
// protocol; unavailability only for the SS family, whose availability
// sampler defines it — with K instances it prices tree re-stabilization
// under cross-topic radio contention.
func multiGroupSpec(o Options) *figSpec {
	spec := &figSpec{tbls: []Table{{
		Title:  "Figure 21: PDR / unavailability / control overhead vs concurrent group count",
		XLabel: "concurrent groups (K)",
		YLabel: "metric value (per series)",
		Series: map[string][]Point{},
	}}}
	t := &spec.tbls[0]
	type metricOut struct {
		label  string
		pick   picker
		ssOnly bool
	}
	outs := []metricOut{
		{"PDR", pdr, false},
		{"unavail", unavail, true},
		{"ctrl/B", ctrl, false},
	}
	for _, mo := range outs {
		for _, p := range allFour {
			if mo.ssOnly && !p.SelfStabilizing() {
				continue
			}
			t.Order = append(t.Order, p.String()+" "+mo.label)
		}
	}
	for _, p := range allFour {
		for _, k := range groupCounts {
			cfg := scenario.Default()
			cfg.Duration = o.Duration
			cfg.Protocol = p
			cfg.VMax = 5
			cfg.GroupSize = 20
			cfg.Groups = k
			r := row{x: float64(k), cfg: cfg}
			for _, mo := range outs {
				if mo.ssOnly && !p.SelfStabilizing() {
					continue
				}
				r.outs = append(r.outs, rowOut{series: p.String() + " " + mo.label, pick: mo.pick})
			}
			spec.rows = append(spec.rows, r)
		}
	}
	return spec
}

// burstLengths is the figure 20a loss-burstiness sweep: the Gilbert-Elliott
// mean burst length in packets (1/PBadGood), longest burst last. The mean
// loss rate is held roughly constant while the burst structure changes —
// the axis isolates burstiness, not raw loss.
var burstLengths = []float64{1, 2, 4, 8, 16}

// crashMTBFFracs is the figure 20b crash-rate sweep: mean time between
// crashes as a fraction of the run horizon, gentlest first. MTTR is fixed
// at Duration/12 so the expected down-fraction rises with the crash rate.
var crashMTBFFracs = []float64{2, 1, 0.5, 0.25}

// faultSpec declares figure 20 — the fault-injection robustness study this
// repository adds beyond the paper: all four protocols at the paper
// baseline (5 m/s, 20 receivers) under (a) Gilbert-Elliott bursty channel
// loss of increasing burst length and (b) crash/reboot node faults of
// increasing rate. One spec, two tables, separate grids. PDR and control
// overhead are read for every protocol; unavailability only for the SS
// family, whose availability sampler defines it — under faults it prices
// how long the tree takes to re-stabilize after each loss burst or reboot.
func faultSpec(o Options) *figSpec {
	spec := &figSpec{tbls: []Table{
		{
			Title:  "Figure 20a: PDR / unavailability / control overhead vs loss burst length (Gilbert-Elliott)",
			XLabel: "mean loss burst length (packets)",
			YLabel: "metric value (per series)",
			Series: map[string][]Point{},
		},
		{
			Title:  "Figure 20b: PDR / unavailability / control overhead vs crash rate (MTBF as fraction of run)",
			XLabel: "crash MTBF / duration",
			YLabel: "metric value (per series)",
			Series: map[string][]Point{},
		},
	}}
	type metricOut struct {
		label  string
		pick   picker
		ssOnly bool
	}
	outs := []metricOut{
		{"PDR", pdr, false},
		{"unavail", unavail, true},
		{"ctrl/B", ctrl, false},
	}
	for ti := range spec.tbls {
		for _, mo := range outs {
			for _, p := range allFour {
				if mo.ssOnly && !p.SelfStabilizing() {
					continue
				}
				spec.tbls[ti].Order = append(spec.tbls[ti].Order, p.String()+" "+mo.label)
			}
		}
	}
	base := func(p scenario.ProtocolKind) scenario.Config {
		cfg := scenario.Default()
		cfg.Duration = o.Duration
		cfg.Protocol = p
		cfg.VMax = 5
		cfg.GroupSize = 20
		return cfg
	}
	addOuts := func(r *row, p scenario.ProtocolKind, tbl int) {
		for _, mo := range outs {
			if mo.ssOnly && !p.SelfStabilizing() {
				continue
			}
			r.outs = append(r.outs, rowOut{series: p.String() + " " + mo.label, pick: mo.pick, tbl: tbl})
		}
	}
	for _, p := range allFour {
		for _, L := range burstLengths {
			cfg := base(p)
			cfg.Faults.Loss.PGoodBad = 0.05
			cfg.Faults.Loss.PBadGood = 1 / L
			cfg.Faults.Loss.LossBad = 0.8
			r := row{x: L, cfg: cfg}
			addOuts(&r, p, 0)
			spec.rows = append(spec.rows, r)
		}
		for _, frac := range crashMTBFFracs {
			cfg := base(p)
			cfg.Faults.CrashMTBF = frac * o.Duration
			cfg.Faults.CrashMTTR = o.Duration / 12
			r := row{x: frac, cfg: cfg}
			addOuts(&r, p, 1)
			spec.rows = append(spec.rows, r)
		}
	}
	return spec
}

// spec builds the declared figure n (7–20); kinds parameterizes the
// cross-mobility table 17 and is ignored elsewhere.
func spec(n int, o Options, kinds []scenario.MobilityKind) (*figSpec, error) {
	switch n {
	case 7:
		return velocitySpec(o, ssFamily, pdr,
			"Figure 7: PDR vs velocity (SS-SPST family)", "packet delivery ratio"), nil
	case 8:
		return velocitySpec(o, ssFamily, unavail,
			"Figure 8: Unavailability ratio vs velocity (SS-SPST family)", "unavailability ratio"), nil
	case 9:
		return velocitySpec(o, ssFamily, energyMJ,
			"Figure 9: Energy per packet vs velocity (SS-SPST family)", "energy (mJ)"), nil
	case 10:
		return beaconSpec(o, pdr,
			"Figure 10: PDR vs beacon interval", "packet delivery ratio"), nil
	case 11:
		return beaconSpec(o, energyMJ,
			"Figure 11: Energy per packet vs beacon interval", "energy (mJ)"), nil
	case 12:
		return groupSpec(o, allFour, 1, pdr,
			"Figure 12: PDR vs multicast group size", "packet delivery ratio"), nil
	case 13:
		return groupSpec(o, allFour, 1, ctrl,
			"Figure 13: Control bytes per data byte delivered vs group size", "control bytes / data byte"), nil
	case 14:
		return velocitySpec(o, allFour, pdr,
			"Figure 14: PDR vs velocity (protocol comparison)", "packet delivery ratio"), nil
	case 15:
		return groupSpec(o, allFour, 1, delayMS,
			"Figure 15: Average delay vs multicast group size", "delay (ms)"), nil
	case 16:
		return velocitySpec(o, allFour, energyMJ,
			"Figure 16: Energy per packet vs velocity (protocol comparison)", "energy (mJ)"), nil
	case 17:
		return crossMobilitySpec(o, kinds), nil
	case 18:
		return churnSpec(o), nil
	case 19:
		return lifetimeSpec(o), nil
	case 20:
		return faultSpec(o), nil
	case 21:
		return multiGroupSpec(o), nil
	default:
		return nil, fmt.Errorf("experiments: unknown figure %d (valid: 7-21)", n)
	}
}

// AllFigures lists the generatable figure numbers in paper order
// (7–16 reproduce the paper; 17 is the cross-mobility extension, 18 the
// membership-churn sweep, 19 the network-lifetime study, 20 the
// fault-injection robustness study, 21 the concurrent-group sweep — note
// 19 and 20 each yield two tables).
func AllFigures() []int { return []int{7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21} }

// Generate regenerates the requested figures as ONE globally scheduled
// batch: every (figure, row, seed) run goes into the shared engine's
// cost-ordered queue together, so the longest runs start first regardless
// of which figure owns them, worker arenas stay hot across figure
// boundaries, and the runs of each (mobility, seed) point share one
// recorded movement trace even when different figures request the same
// point. kinds parameterizes the cross-mobility table 17 (nil → default
// set). Tables return in request order; a figure owning several tables
// (the lifetime figure 19 emits a timeline and a summary) contributes
// them consecutively.
func Generate(o Options, figs []int, kinds []scenario.MobilityKind) ([]Table, error) {
	specs := make([]*figSpec, len(figs))
	for i, n := range figs {
		sp, err := spec(n, o, kinds)
		if err != nil {
			return nil, err
		}
		specs[i] = sp
	}
	return generateSpecs(o, specs)
}

// generateSpecs runs declared figures through the shared engine and
// reduces the results offline — the same flatten + reduceSpecs pair the
// sharded Plan path uses, so live runs, resumed runs and merged shard
// artifacts all format byte-identically.
func generateSpecs(o Options, specs []*figSpec) ([]Table, error) {
	cfgs, keys := flatten(o, specs)
	results := scenario.DefaultEngine().Sweep(cfgs)
	return reduceSpecs(o, specs, keys, results), nil
}

// timelinePoints expands one row's seed summaries into the dead-fraction
// curve: one point per lifetime bucket, x at the bucket's end time, y the
// pooled dead fraction and CI the per-seed spread at that bucket.
func timelinePoints(ss []metrics.Summary, duration float64) []Point {
	pooled := metrics.Mean(ss)
	pts := make([]Point, metrics.LifetimeBuckets)
	for k := range pts {
		var sample metrics.Sample
		for _, s := range ss {
			sample.Add(s.DeadFrac[k])
		}
		pts[k] = Point{
			X:  duration * float64(k+1) / metrics.LifetimeBuckets,
			Y:  pooled.DeadFrac[k],
			CI: sample.CI95(),
		}
	}
	return pts
}

// generate1 is the single-figure convenience used by the FigureN API.
func generate1(o Options, n int, kinds []scenario.MobilityKind) Table {
	tbls, err := Generate(o, []int{n}, kinds)
	if err != nil {
		panic(err) // unreachable: n is a package-internal constant
	}
	return tbls[0]
}

// Figure7 reproduces "Packet Delivery Ratio vs. Velocity" for the SS-SPST
// metric family.
func Figure7(o Options) Table { return generate1(o, 7, nil) }

// Figure8 reproduces "Unavailability Ratio vs. Velocity".
func Figure8(o Options) Table { return generate1(o, 8, nil) }

// Figure9 reproduces "Energy Consumption per Packet Delivered vs.
// Velocity" for the metric family.
func Figure9(o Options) Table { return generate1(o, 9, nil) }

// Figure10 reproduces "PDR vs. Beacon Interval" (SS-SPST vs SS-SPST-E,
// 5 m/s).
func Figure10(o Options) Table { return generate1(o, 10, nil) }

// Figure11 reproduces "Energy Consumption per Packet Delivered vs. Beacon
// Interval".
func Figure11(o Options) Table { return generate1(o, 11, nil) }

// Figure12 reproduces "PDR vs. Multicast Group Size" for the four-protocol
// comparison at 1 m/s.
func Figure12(o Options) Table { return generate1(o, 12, nil) }

// Figure13 reproduces "Control Byte Overhead vs. Multicast Group Size".
func Figure13(o Options) Table { return generate1(o, 13, nil) }

// Figure14 reproduces "PDR vs. Velocity" for the four-protocol comparison
// (group size 20).
func Figure14(o Options) Table { return generate1(o, 14, nil) }

// Figure15 reproduces "Average Delay per Node vs. Multicast Group Size".
func Figure15(o Options) Table { return generate1(o, 15, nil) }

// Figure16 reproduces "Energy Consumed per Packet Delivered vs. Velocity"
// for the four-protocol comparison.
func Figure16(o Options) Table { return generate1(o, 16, nil) }

// ExtensionMST is an extension experiment beyond the paper: the SS-MST
// minimax variant (the paper's ref [14]) alongside the SPST family over
// the velocity axis, on the Figure 7/9 axes.
func ExtensionMST(o Options) Table {
	specs := []*figSpec{extensionMSTSpec(o)}
	tbls, err := generateSpecs(o, specs)
	if err != nil {
		panic(err)
	}
	return tbls[0]
}

// CrossMobility regenerates table 17 with an explicit model set.
func CrossMobility(o Options, kinds []scenario.MobilityKind) Table {
	return generate1(o, 17, kinds)
}

// Figure18 generates the membership-churn sweep: PDR, unavailability (SS
// family) and control overhead for all four protocols as the group
// rotates one member every MemberChurnInterval seconds.
func Figure18(o Options) Table { return generate1(o, 18, nil) }

// Figure19 generates the network-lifetime study under finite batteries
// and returns its two tables: the dead-node fraction timeline (one curve
// per protocol) and the per-protocol lifetime summary (first death,
// half-dead time, payload delivered until half-dead, residual dead
// fraction, PDR).
func Figure19(o Options) []Table {
	tbls, err := Generate(o, []int{19}, nil)
	if err != nil {
		panic(err) // unreachable: 19 is a package-internal constant
	}
	return tbls
}

// Figure20 generates the fault-injection robustness study and returns its
// two tables: PDR / unavailability / control overhead versus the
// Gilbert-Elliott loss burst length (20a) and versus the crash/reboot rate
// (20b), for all four protocols.
func Figure20(o Options) []Table {
	tbls, err := Generate(o, []int{20}, nil)
	if err != nil {
		panic(err) // unreachable: 20 is a package-internal constant
	}
	return tbls
}

// Figure21 generates the concurrent-group sweep: PDR, unavailability (SS
// family) and control overhead for all four protocols as K independent
// Zipf-popular multicast groups share each node's radio.
func Figure21(o Options) Table { return generate1(o, 21, nil) }

// All returns every reproduced paper figure in paper order, generated as
// one batch.
func All(o Options) []Table {
	tbls, err := Generate(o, []int{7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, nil)
	if err != nil {
		panic(err)
	}
	return tbls
}

// Format renders the table as aligned text, one row per x value. Points
// carrying a confidence interval render as "mean ±ci"; categorical
// tables (XTicks set) label rows by tick name instead of the numeric x.
func (t Table) Format() string {
	var b strings.Builder
	names := t.seriesNames()
	colw := 12
	for _, n := range names {
		if len(n)+2 > colw {
			colw = len(n) + 2
		}
		for _, pt := range t.Series[n] {
			if pt.CI > 0 && colw < 22 {
				colw = 22
			}
		}
	}
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-24s", t.XLabel)
	for _, n := range names {
		fmt.Fprintf(&b, "%*s", colw, n)
	}
	b.WriteByte('\n')
	if len(names) == 0 {
		return b.String()
	}
	for i, pt := range t.Series[names[0]] {
		if i < len(t.XTicks) {
			fmt.Fprintf(&b, "%-24s", t.XTicks[i])
		} else {
			fmt.Fprintf(&b, "%-24.3g", pt.X)
		}
		for _, n := range names {
			cell := "-"
			if i < len(t.Series[n]) {
				p := t.Series[n][i]
				cell = fmt.Sprintf("%.4g", p.Y)
				if p.CI > 0 {
					cell += fmt.Sprintf(" ±%.2g", p.CI)
				}
			}
			fmt.Fprintf(&b, "%*s", colw, cell)
		}
		b.WriteByte('\n')
	}
	// Degradation footer: points pooled from fewer seeds than scheduled
	// (persistent replication failures) and rows that plotted nothing.
	// Fully-covered tables print exactly as before.
	for _, n := range names {
		for _, p := range t.Series[n] {
			if p.NTotal > 0 && p.NOK < p.NTotal {
				fmt.Fprintf(&b, "  partial: %s at x=%g pooled %d/%d seeds\n", n, p.X, p.NOK, p.NTotal)
			}
		}
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", note)
	}
	return b.String()
}

// seriesNames returns the legend order (declared order first, then any
// extras alphabetically).
func (t Table) seriesNames() []string {
	seen := map[string]bool{}
	var names []string
	for _, n := range t.Order {
		if _, ok := t.Series[n]; ok && !seen[n] {
			names = append(names, n)
			seen[n] = true
		}
	}
	var rest []string
	for n := range t.Series {
		if !seen[n] {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	return append(names, rest...)
}

func sortPoints(ps []Point) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].X < ps[j].X })
}
