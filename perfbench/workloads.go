package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/sweepgrid"
)

// sizes fixes how much work one repetition of each workload does. The
// benchmark runs with benchSizes; the tests shrink them.
type sizes struct {
	paperFigures  []int
	paperDuration float64 // simulated seconds per paper-sweep job
	paperSeeds    int

	scaleRuns     int // runs per scale-500 batch
	scaleDuration float64

	faultVMax     string // sweepgrid velocity axis of fault-mix
	faultSeeds    int
	faultDuration float64
}

// benchSizes keeps each batch to about 1.5-3 s on a 2-CPU host, so a run
// has enough repetitions for its fastest quarter to be steady, and spreads
// each batch over many replication seeds, because the seed's work varies:
// one replication seed fixes the node placement of every figure row.
var benchSizes = sizes{
	paperFigures:  []int{7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
	paperDuration: 15,
	paperSeeds:    3,

	scaleRuns:     24,
	scaleDuration: 15,

	faultVMax:     "2,10",
	faultSeeds:    4,
	faultDuration: 30,
}

// workload is one set of inputs the benchmark drives through the
// program's public API. run performs one repetition: it builds its
// inputs from the seed, sets up, runs the first job through rep.firstJob,
// runs the timed batch and fills in the repetition.
// README.md says why each workload exists.
type workload struct {
	name string
	// minReps is the number of repetitions a run measures however short
	// --seconds is, few enough that on a slowed host (about 4 s a
	// repetition) a 50 s run still ends in time. tailPct is the highest
	// job-time percentile with at least ten jobs beyond it in the
	// fastest quarter of minReps repetitions.
	minReps int
	tailPct float64
	run     func(r *rep, sz sizes) error
}

var workloads = []workload{
	{
		name: "paper-sweep",
		// 624 jobs a batch; the fastest 2 of 6 repetitions leave 12
		// beyond p99.
		minReps: 6, tailPct: 99,
		run: paperSweep,
	},
	{
		name: "scale-500",
		// 24 runs a batch; the fastest 3 of 10 repetitions leave 10
		// beyond p85.
		minReps: 10, tailPct: 85,
		run: scale500,
	},
	{
		name: "fault-mix",
		// 24 jobs a batch; the fastest 3 of 10 repetitions leave 10
		// beyond p85.
		minReps: 10, tailPct: 85,
		run: faultMix,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// paperSweep flattens the paper's figures into one plan, runs it on the
// engine, reduces it to tables and formats them.
func paperSweep(r *rep, sz sizes) error {
	var plan *experiments.Plan
	var err error
	r.span("plan", func() {
		plan, err = experiments.PlanSpec{
			Figures:  sz.paperFigures,
			Duration: sz.paperDuration,
			Seeds:    sz.paperSeeds,
			BaseSeed: r.seed,
		}.Plan()
	})
	if err != nil {
		return err
	}
	eng := scenario.NewEngine(r.workers)
	defer eng.Close()
	jobs := plan.Jobs()
	r.firstJob(func() scenario.Result { return eng.Sweep(jobs[:1])[0] })

	r.sweep(eng, jobs)
	var tables []experiments.Table
	r.span("reduce", func() { tables, err = plan.Tables(r.results) })
	if err != nil {
		return err
	}
	var out strings.Builder
	r.span("format", func() {
		for _, t := range tables {
			out.WriteString(t.Format())
			out.WriteByte('\n')
		}
	})
	r.output = out.String()
	return nil
}

// scaleConfigs is the scale-500 batch: the paper's node density at
// N=500, 100 receivers, one replication seed per run.
func scaleConfigs(seed uint64, sz sizes) []scenario.Config {
	cfgs := make([]scenario.Config, sz.scaleRuns)
	for i := range cfgs {
		c := scenario.Default()
		c.Protocol = scenario.SSSPSTE
		c.N = 500
		c.AreaSide = 2372
		c.GroupSize = 100
		c.Duration = sz.scaleDuration
		c.Seed = scenario.ReplicationSeed(seed, i)
		cfgs[i] = c
	}
	return cfgs
}

// scale500 runs its batch one run after another through one RunContext.
func scale500(r *rep, sz sizes) error {
	var cfgs []scenario.Config
	r.span("plan", func() { cfgs = scaleConfigs(r.seed, sz) })
	rc := scenario.NewRunContext()
	r.firstJob(func() scenario.Result {
		res, _ := rc.RunE(cfgs[0]) // a failure is in res.Err
		return res
	})

	r.results = make([]scenario.Result, len(cfgs))
	r.span("sweep", func() {
		for i, c := range cfgs {
			cpu := processCPU()
			r.results[i], _ = rc.RunE(c) // a failure is in Result.Err
			r.runs = append(r.runs, processCPU()-cpu)
		}
	})
	return nil
}

// faultAxes is fault-mix's grid in the shape of cmd/sweep's flags:
// three protocols, Gauss-Markov mobility, 8 Zipf groups, churn, figure
// 19's horizon-scaled battery, Gilbert-Elliott loss and crash/reboot.
func faultAxes(sz sizes) sweepgrid.Axes {
	return sweepgrid.Axes{
		Protos:      "ss-spst-e,maodv,odmrp",
		VMaxs:       sz.faultVMax,
		GroupSizes:  "20",
		GroupCounts: "8",
		Beacons:     "2",
		Churns:      "5",
		// Figure 19 scales a 20 J reserve to a 600 s horizon.
		Batteries:  sweepgrid.Ftoa(20 * sz.faultDuration / 600),
		Losses:     "4",
		CrashMTBFs: sweepgrid.Ftoa(sz.faultDuration),
		Mobilities: "gauss-markov",
		Seeds:      sz.faultSeeds,
		Duration:   sz.faultDuration,
	}
}

// faultMix builds its grid with sweepgrid, moves it to N=100 at the
// paper's density and the workload seed, runs it on the engine, writes
// the CSV, then writes, reads and merges a 2-shard artifact set and
// checks that the merged CSV equals the live one.
func faultMix(r *rep, sz sizes) error {
	axes := faultAxes(sz)
	var points []sweepgrid.Point
	var cfgs []scenario.Config
	var err error
	r.span("plan", func() {
		points, cfgs, err = sweepgrid.Build(axes)
		if err != nil {
			return
		}
		for i := range cfgs {
			cfgs[i].N = 100
			cfgs[i].AreaSide = 750 * math.Sqrt2
			cfgs[i].Seed = scenario.ReplicationSeed(r.seed, i%axes.Seeds)
			if err = cfgs[i].Validate(); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	eng := scenario.NewEngine(r.workers)
	defer eng.Close()
	r.firstJob(func() scenario.Result { return eng.Sweep(cfgs[:1])[0] })

	r.sweep(eng, cfgs)
	var live bytes.Buffer
	r.span("format", func() { err = sweepgrid.WriteCSV(&live, axes, points, r.results) })
	if err != nil {
		return err
	}
	merged, err := shardRoundTrip(r, axes, cfgs)
	if err != nil {
		return err
	}
	var again bytes.Buffer
	r.span("reduce", func() { err = sweepgrid.WriteCSV(&again, axes, points, merged) })
	if err != nil {
		return err
	}
	if !bytes.Equal(live.Bytes(), again.Bytes()) {
		r.fail("CSV merged from the 2-shard artifacts differs from the live CSV")
	}
	r.output = live.String()
	return nil
}

// shardRoundTrip writes the batch as two cost-balanced shard artifacts,
// reads them back and merges them into results in grid order.
func shardRoundTrip(r *rep, axes sweepgrid.Axes, cfgs []scenario.Config) ([]scenario.Result, error) {
	meta, err := json.Marshal(axes)
	if err != nil {
		return nil, err
	}
	gridFP := shard.GridFingerprint("sweep", axes, cfgs)
	costs := make([]float64, len(cfgs))
	for i, c := range cfgs {
		costs[i] = float64(c.N) * c.Duration
	}
	dir, err := os.MkdirTemp(r.workDir, "shards-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	const n = 2
	paths := make([]string, n)
	r.span("artifact_write", func() {
		for k := 1; k <= n && err == nil; k++ {
			art := &shard.Artifact{
				Kind: "sweep", Shard: k, Shards: n,
				TotalJobs: len(cfgs), GridFP: gridFP, Meta: meta,
			}
			for _, gi := range shard.Partition(costs, k, n) {
				art.Jobs = append(art.Jobs, shard.RecordOf(gi, r.results[gi], true))
			}
			paths[k-1] = filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d.json", k, n))
			err = shard.WriteArtifact(paths[k-1], art)
		}
	})
	if err != nil {
		return nil, err
	}
	arts := make([]*shard.Artifact, n)
	r.span("artifact_read", func() {
		for i := 0; i < n && err == nil; i++ {
			arts[i], err = shard.ReadArtifact(paths[i])
		}
	})
	if err != nil {
		return nil, err
	}
	var recs []shard.JobRecord
	r.span("merge", func() { recs, err = shard.Merge(arts, paths, "sweep", gridFP, len(cfgs)) })
	if err != nil {
		return nil, err
	}
	merged := make([]scenario.Result, len(cfgs))
	for i, rec := range recs {
		merged[i] = rec.Result(cfgs[i])
	}
	return merged, nil
}
