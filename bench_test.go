// Package repro's root benchmarks regenerate every figure of the paper's
// evaluation (one benchmark per table/figure; see DESIGN.md §4 for the
// mapping) plus the ablation studies DESIGN.md calls out. Each figure
// benchmark reports the reproduced curves through -v logging on the first
// iteration, so
//
//	go test -bench=Figure -benchtime=1x -v
//
// both times the harness and prints the regenerated series. Benchmarks use
// experiments.Quick (180 s runs, 2 seeds); cmd/figures runs the paper-scale
// version.
package repro

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/scenario"
)

func benchFigure(b *testing.B, gen func(experiments.Options) experiments.Table) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl := gen(experiments.Quick())
		if i == 0 {
			b.Log("\n" + tbl.Format())
		}
	}
}

// BenchmarkFigure7 regenerates "PDR vs velocity" for the SS-SPST family.
func BenchmarkFigure7(b *testing.B) { benchFigure(b, experiments.Figure7) }

// BenchmarkFigure8 regenerates "Unavailability ratio vs velocity".
func BenchmarkFigure8(b *testing.B) { benchFigure(b, experiments.Figure8) }

// BenchmarkFigure9 regenerates "Energy per packet vs velocity" (SS family).
func BenchmarkFigure9(b *testing.B) { benchFigure(b, experiments.Figure9) }

// BenchmarkFigure10 regenerates "PDR vs beacon interval".
func BenchmarkFigure10(b *testing.B) { benchFigure(b, experiments.Figure10) }

// BenchmarkFigure11 regenerates "Energy per packet vs beacon interval".
func BenchmarkFigure11(b *testing.B) { benchFigure(b, experiments.Figure11) }

// BenchmarkFigure12 regenerates "PDR vs multicast group size" (all four).
func BenchmarkFigure12(b *testing.B) { benchFigure(b, experiments.Figure12) }

// BenchmarkFigure13 regenerates "Control overhead vs group size".
func BenchmarkFigure13(b *testing.B) { benchFigure(b, experiments.Figure13) }

// BenchmarkFigure14 regenerates "PDR vs velocity" (all four protocols).
func BenchmarkFigure14(b *testing.B) { benchFigure(b, experiments.Figure14) }

// BenchmarkFigure15 regenerates "Average delay vs group size".
func BenchmarkFigure15(b *testing.B) { benchFigure(b, experiments.Figure15) }

// BenchmarkFigure16 regenerates "Energy per packet vs velocity" (all four).
func BenchmarkFigure16(b *testing.B) { benchFigure(b, experiments.Figure16) }

// benchScenario times one complete simulation run of the given config.
// Iterations share one RunContext, mirroring how sweep workers run
// replications: the reported ns/op and allocs/op are the steady-state
// per-replication cost, not the cold-start cost.
func benchScenario(b *testing.B, mutate func(*scenario.Config)) {
	b.ReportAllocs()
	rc := scenario.NewRunContext()
	for i := 0; i < b.N; i++ {
		cfg := scenario.Default()
		cfg.Duration = 120
		cfg.VMax = 5
		cfg.Seed = uint64(i) + 1
		if mutate != nil {
			mutate(&cfg)
		}
		res := rc.Run(cfg)
		if i == 0 {
			b.Logf("%s: %v", cfg.Protocol, res.Summary)
		}
	}
}

// BenchmarkRunSSSPST times one 120 s SS-SPST run (simulator throughput).
func BenchmarkRunSSSPST(b *testing.B) {
	benchScenario(b, func(c *scenario.Config) { c.Protocol = scenario.SSSPST })
}

// BenchmarkRunSSSPSTE times one 120 s SS-SPST-E run.
func BenchmarkRunSSSPSTE(b *testing.B) {
	benchScenario(b, func(c *scenario.Config) { c.Protocol = scenario.SSSPSTE })
}

// BenchmarkRunSSSPSTE200 is the scaling variant: the same run at 200
// nodes, where the medium's per-transmission cost dominates. Compare
// against BenchmarkRunSSSPSTE200Brute to see the spatial index's effect.
func BenchmarkRunSSSPSTE200(b *testing.B) {
	benchScenario(b, func(c *scenario.Config) {
		c.Protocol = scenario.SSSPSTE
		c.N = 200
	})
}

// BenchmarkRunSSSPSTE200Brute runs the identical scenario over the
// retained brute-force medium (GridConfig.Disable) — the ablation
// documenting what the spatial index buys. Results are bit-identical to
// BenchmarkRunSSSPSTE200 (TestGridEquivalence); only the time differs.
func BenchmarkRunSSSPSTE200Brute(b *testing.B) {
	benchScenario(b, func(c *scenario.Config) {
		c.Protocol = scenario.SSSPSTE
		c.N = 200
		c.Medium.Grid.Disable = true
	})
}

// scale500 configures the 500-node scaling scenario. Node density is held
// at the paper's own (50 nodes in a 750 m square ≈ 8.9·10⁻⁵ nodes/m²),
// so the deployment grows to a ~2372 m square and locality — not raw N —
// decides the medium's per-transmission cost: a full-power beacon now
// covers ~3.5% of the nodes instead of all of them. The multicast group
// scales with the network (100 receivers — 20%, the low end of the
// paper's Figure-12 sweep), so the data tree spans the deployment and
// power-controlled forwards carry real weight next to the beacons. This
// is the regime the spatial index exists for, and the shape of every
// N≥500 scenario the ROADMAP asks for.
func scale500(c *scenario.Config) {
	c.Protocol = scenario.SSSPSTE
	c.N = 500
	c.AreaSide = 2372
	c.GroupSize = 100
}

// BenchmarkRunSSSPSTE500 is the large-N scaling benchmark: a 500-node
// SS-SPST-E run at the same node density as the 200-node scenario.
func BenchmarkRunSSSPSTE500(b *testing.B) {
	benchScenario(b, scale500)
}

// BenchmarkRunSSSPSTE500Brute runs the identical 500-node scenario over
// the brute-force medium. Results are bit-identical (TestGridEquivalence
// asserts the invariant); the ratio to BenchmarkRunSSSPSTE500 is the
// spatial index's large-N payoff.
func BenchmarkRunSSSPSTE500Brute(b *testing.B) {
	benchScenario(b, func(c *scenario.Config) {
		scale500(c)
		c.Medium.Grid.Disable = true
	})
}

// BenchmarkRunMAODV times one 120 s MAODV run.
func BenchmarkRunMAODV(b *testing.B) {
	benchScenario(b, func(c *scenario.Config) { c.Protocol = scenario.MAODV })
}

// BenchmarkRunODMRP times one 120 s ODMRP run.
func BenchmarkRunODMRP(b *testing.B) {
	benchScenario(b, func(c *scenario.Config) { c.Protocol = scenario.ODMRP })
}

// --- Ablation benchmarks (DESIGN.md §6) -----------------------------------
//
// Each ablation runs the SS-SPST-E scenario with one design choice flipped
// and logs the resulting headline metrics next to the default, so a single
// -bench=Ablation -benchtime=1x -v pass documents every trade-off.

func ablationRun(b *testing.B, mutate func(*scenario.Config)) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := scenario.Default()
		cfg.Protocol = scenario.SSSPSTE
		cfg.Duration = 120
		cfg.VMax = 5
		if mutate != nil {
			mutate(&cfg)
		}
		res := scenario.Run(cfg)
		if i == 0 {
			b.Logf("%v", res.Summary)
		}
	}
}

// BenchmarkAblationBaseline is the reference configuration for every
// ablation below.
func BenchmarkAblationBaseline(b *testing.B) { ablationRun(b, nil) }

// BenchmarkAblationHopCapLoopGuard swaps the path-vector guard for the
// paper's bare hop-cap (Lemma 3): loops then take up to N rounds to
// dissolve, and the delivery ratio drops accordingly.
func BenchmarkAblationHopCapLoopGuard(b *testing.B) {
	ablationRun(b, func(c *scenario.Config) {
		c.SSCore.LoopGuard = core.LoopGuardHopCap
	})
}

// BenchmarkAblationMakeBeforeBreak enables the make-before-break grace
// (forwarding from the previous parent for one beacon interval after a
// switch), an extension beyond the paper that removes most per-switch
// outages.
func BenchmarkAblationMakeBeforeBreak(b *testing.B) {
	ablationRun(b, func(c *scenario.Config) {
		c.SSCore.MakeBeforeBreak = true
	})
}

// BenchmarkAblationNoHopPenalty disables SS-SPST-E's per-hop regularizer,
// letting in-coverage joins be exactly free: trees grow deeper and the
// compounded per-hop loss shows up in PDR.
func BenchmarkAblationNoHopPenalty(b *testing.B) {
	ablationRun(b, func(c *scenario.Config) {
		c.SSCore.HopPenaltyFrac = -1 // negative → disabled
	})
}

// BenchmarkAblationErxOfTx enables transmission-power-dependent reception
// energy — the paper's stated future work (its ref [23]).
func BenchmarkAblationErxOfTx(b *testing.B) {
	ablationRun(b, func(c *scenario.Config) {
		c.Medium.Energy.ErxOfTx = true
	})
}

// BenchmarkAblationRandomDirection swaps random waypoint for the
// random-direction model, checking the curves are not an artifact of RWP's
// centre-biased node density.
func BenchmarkAblationRandomDirection(b *testing.B) {
	ablationRun(b, func(c *scenario.Config) {
		c.Mobility = scenario.RandomDirection
	})
}

// BenchmarkAblationNoBeaconJitter phase-locks all beacons (no timer
// jitter), showing the collision cost of synchronized control traffic.
func BenchmarkAblationNoBeaconJitter(b *testing.B) {
	ablationRun(b, func(c *scenario.Config) {
		c.SSCore.BeaconJitter = -1e-9 // effectively zero, bypasses the default
	})
}

// BenchmarkExtensionMST regenerates the SS-MST extension table (DESIGN.md
// §6): the minimax companion protocol next to SS-SPST and SS-SPST-E.
func BenchmarkExtensionMST(b *testing.B) { benchFigure(b, experiments.ExtensionMST) }

// figurePointConfigs is one full figure point: all 8 protocols × 4 seeds
// at the paper baseline (5 m/s, 20 receivers), the unit of work the
// sweep engine schedules when regenerating a figure. The 8 protocol runs
// at each seed share one recorded mobility trace. groups > 1 multiplexes
// that many Zipf-popular groups over each node's radio; groups <= 1 is
// the paper's single-group workload (Config.Groups stays zero).
func figurePointConfigs(mob scenario.MobilityKind, groups int) []scenario.Config {
	protocols := []scenario.ProtocolKind{
		scenario.SSSPST, scenario.SSSPSTT, scenario.SSSPSTF, scenario.SSSPSTE,
		scenario.SSMST, scenario.MAODV, scenario.ODMRP, scenario.Flood,
	}
	var cfgs []scenario.Config
	for s := 0; s < 4; s++ {
		for _, p := range protocols {
			cfg := scenario.Default()
			cfg.Protocol = p
			cfg.Mobility = mob
			cfg.VMax = 5
			cfg.Duration = 60
			if groups > 1 {
				cfg.Groups = groups
			}
			cfg.Seed = scenario.ReplicationSeed(1, s)
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// BenchmarkFigureSweep measures sweep-engine throughput on one figure
// point at workers=1: trace sharing and arena persistence isolated from
// parallelism. The engine persists across iterations, exactly as the
// global scheduler holds its pool across figures.
func BenchmarkFigureSweep(b *testing.B) {
	e := scenario.NewEngine(1)
	defer e.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Sweep(figurePointConfigs(scenario.RandomWaypoint, 1))
	}
	hits, misses := e.TraceStats()
	b.Logf("trace cache: %d hits, %d misses", hits, misses)
}

// BenchmarkFigureSweepGM is the trace-heavy variant: Gauss-Markov legs
// are the expensive ones (one autoregressive step per node per second),
// so this point shows the recording/replay split most clearly.
func BenchmarkFigureSweepGM(b *testing.B) {
	e := scenario.NewEngine(1)
	defer e.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Sweep(figurePointConfigs(scenario.GaussMarkov, 1))
	}
}

// BenchmarkFigureSweepGroups8 is the multi-group variant: the same figure
// point with every run multiplexing 8 Zipf-popular multicast groups over
// each node's radio — the steady-state per-point cost of the figure 21
// workload. Compared against BenchmarkFigureSweep, the ratio is the
// marginal cost of seven extra protocol instances sharing one medium.
func BenchmarkFigureSweepGroups8(b *testing.B) {
	e := scenario.NewEngine(1)
	defer e.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Sweep(figurePointConfigs(scenario.RandomWaypoint, 8))
	}
}

// BenchmarkFigureSweepParallel runs the same point on a machine-wide
// engine; the speedup over BenchmarkFigureSweep is the parallel-scaling
// factor (meaningless when GOMAXPROCS=1).
func BenchmarkFigureSweepParallel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scenario.Sweep(figurePointConfigs(scenario.RandomWaypoint, 1))
	}
}

// BenchmarkSweepParallelism measures the sweep runner's scaling: the same
// 8-point sweep with 1 worker vs GOMAXPROCS workers.
func BenchmarkSweepParallelism(b *testing.B) {
	mk := func() []scenario.Config {
		var cfgs []scenario.Config
		for i := 0; i < 8; i++ {
			cfg := scenario.Default()
			cfg.Duration = 30
			cfg.Seed = uint64(i + 1)
			cfgs = append(cfgs, cfg)
		}
		return cfgs
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scenario.SweepN(mk(), 1)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scenario.Sweep(mk())
		}
	})
}

// BenchmarkSimulatorEventRate measures raw event throughput of a full
// 50-node SS-SPST-E stack, in simulated seconds per wall second.
func BenchmarkSimulatorEventRate(b *testing.B) {
	benchEventRate(b, nil)
}

// BenchmarkSimulatorEventRate200 is the 200-node scaling variant.
func BenchmarkSimulatorEventRate200(b *testing.B) {
	benchEventRate(b, func(c *scenario.Config) { c.N = 200 })
}

// BenchmarkSimulatorEventRate200Brute is the 200-node variant on the
// brute-force medium, for the grid-vs-scan ablation.
func BenchmarkSimulatorEventRate200Brute(b *testing.B) {
	benchEventRate(b, func(c *scenario.Config) {
		c.N = 200
		c.Medium.Grid.Disable = true
	})
}

// BenchmarkSimulatorEventRate500 is the 500-node scaling variant (same
// constant-density deployment as BenchmarkRunSSSPSTE500).
func BenchmarkSimulatorEventRate500(b *testing.B) {
	benchEventRate(b, scale500)
}

// BenchmarkSimulatorEventRate500Brute is the 500-node variant on the
// brute-force medium, for the grid-vs-scan ablation at scale.
func BenchmarkSimulatorEventRate500Brute(b *testing.B) {
	benchEventRate(b, func(c *scenario.Config) {
		scale500(c)
		c.Medium.Grid.Disable = true
	})
}

func benchEventRate(b *testing.B, mutate func(*scenario.Config)) {
	b.ReportAllocs()
	rc := scenario.NewRunContext()
	var once sync.Once
	for i := 0; i < b.N; i++ {
		cfg := scenario.Default()
		cfg.Duration = 60
		if mutate != nil {
			mutate(&cfg)
		}
		res := rc.Run(cfg)
		once.Do(func() {
			b.Logf("60 simulated seconds: %d transmissions, %d deliveries",
				res.Medium.Transmissions, res.Medium.Deliveries)
		})
	}
}
