// Command perfbench is the repository's benchmark: it drives the
// simulator's public API through one workload, measures it for a fixed
// time, checks its output and prints the metrics named in BENCHMARK.json.
//
//	bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 50 --trace 0
//	bash perfbench/run.sh compare OLD.jsonl NEW.jsonl
//
// With --trace 0 the last line of standard output holds the end-to-end
// metrics; with --trace 1 it holds the per-layer metrics of a traced run.
// The line before it is the full report (host, digest, counters), which
// compare reads. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/scenario"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "paper-sweep", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 50, "how long to measure")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	work := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace))
	if err := os.RemoveAll(work); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// One engine worker: the job times are process CPU time, which is
	// one job's own cost only while one job runs at a time. Two workers
	// on a 2-CPU host also left the collector no CPU of its own, and made
	// the order in which unequal jobs finish vary between batches.
	workers := 1
	rpt, err := measure(w, benchSizes, *seed, workers, *seconds, *trace == 1, work)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, p := range rpt.Problems {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", w.name, p)
	}
	line, err := json.Marshal(rpt)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rpt.Correct, rpt.Attempted, rpt.Failed, rpt.Metrics}
	line, err = json.Marshal(result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// host identifies the machine and toolchain a report was measured on.
// Timings compare only between reports with equal hosts; counters and
// digests compare on any host.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Workers    int    `json:"workers"`
}

func thisHost(workers int) host {
	h := host{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Workers: workers}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// report is everything one run measured. The last line of output is
// its Correct/Attempted/Failed/Metrics; the line before is all of it.
type report struct {
	Workload     string             `json:"workload"`
	Seed         uint64             `json:"seed"`
	Trace        bool               `json:"trace"`
	Host         host               `json:"host"`
	Reps         int                `json:"reps"`
	OutputDigest string             `json:"output_digest"`
	Correct      bool               `json:"correct"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	FailFrac     float64            `json:"fail_frac"`
	TailPct      float64            `json:"run_cpu_ms_tail_pct"`
	RunSamples   int                `json:"run_samples"`
	SetupCPUsS   []float64          `json:"setup_cpus_s"`
	BatchWallsS  []float64          `json:"batch_walls_s"`
	BatchCPUsS   []float64          `json:"batch_cpus_s"`
	Counters     map[string]float64 `json:"counters"`
	Metrics      map[string]metric  `json:"metrics"`
	Problems     []string           `json:"problems,omitempty"`
}

// repStats is what the runner measured around one repetition.
type repStats struct {
	*rep
	profiled   bool
	profileErr error
	peakHeapB  uint64
}

// measure warms up, then runs measured repetitions until the next one
// would end after seconds, at least w.minReps of them; a traced run
// alternates plain and profiled ones. The warm-up is the first tenth
// of seconds, and at least one repetition: it grows the heap and the
// caches a fresh process starts without. Its outputs are checked but
// its times are not used.
func measure(w workload, sz sizes, seed uint64, workers int, seconds float64, traced bool, work string) (*report, error) {
	var all, measured, plain, prof []repStats
	var profiles []string
	begin := time.Now()
	warmUntil := begin.Add(time.Duration(seconds / 10 * float64(time.Second)))
	var measuredFrom time.Time
	for i := 0; ; i++ {
		warm := len(measured) == 0 && (i == 0 || time.Now().Before(warmUntil))
		r := newRep(w, seed, workers, work)
		st := repStats{rep: r, profiled: traced && !warm && len(measured)%2 == 1}
		if st.profiled {
			path := filepath.Join(work, fmt.Sprintf("cpu-%d.pprof", i))
			profiles = append(profiles, path)
			r.onTimed = func() func() { return startProfile(path, &st.profileErr) }
		}
		if err := runRep(w, sz, &st); err != nil {
			return nil, err
		}
		if st.profileErr != nil {
			return nil, st.profileErr
		}
		all = append(all, st)
		if warm {
			measuredFrom = time.Now()
			continue
		}
		measured = append(measured, st)
		if st.profiled {
			prof = append(prof, st)
		} else {
			plain = append(plain, st)
		}
		perRep := time.Since(measuredFrom).Seconds() / float64(len(measured))
		if len(measured) >= w.minReps && time.Since(begin).Seconds()+perRep > seconds {
			break
		}
	}

	rpt := &report{
		Workload: w.name, Seed: seed, Trace: traced, Host: thisHost(workers),
		Reps: len(measured), Counters: map[string]float64{}, Metrics: map[string]metric{},
	}
	check(rpt, all)
	e2e := endToEnd(w, plain, rpt)
	counters(all[0].rep, rpt.Counters)
	if !traced {
		rpt.Metrics = e2e
		return rpt, nil
	}
	shares, err := cpuShares(profiles)
	if err != nil {
		return nil, err
	}
	rpt.Metrics = perLayer(measured, rpt.Counters, shares)
	overhead := median(batchCPUs(fastQuarter(prof)))/median(batchCPUs(fastQuarter(plain))) - 1
	rpt.Metrics["trace_overhead_frac"] = metric{overhead, "frac"}
	return rpt, nil
}

// runRep runs one repetition after a full collection, sampling the heap
// while it runs.
func runRep(w workload, sz sizes, st *repStats) error {
	runtime.GC()
	stop := sampleHeap(&st.peakHeapB)
	st.start, st.cpuStart = time.Now(), processCPU()
	var err error
	pprof.Do(context.Background(), pprof.Labels("workload", w.name), func(context.Context) { err = w.run(st.rep, sz) })
	st.finish()
	stop()
	if err == nil && st.setupEnd.IsZero() {
		err = errors.New("workload ended without completing a job")
	}
	return err
}

// sampleHeap records the peak of the Go heap's object bytes into *peak
// every 2 ms until the returned function is called; that function waits
// for the sampler to exit.
func sampleHeap(peak *uint64) func() {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > *peak {
			*peak = v
		}
	}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
	}
}

// check compares every repetition's jobs with the first repetition's and
// each set-up job with the batch's first job, and collects the output
// checks. A job fails if it returned an error or its digest disagrees.
func check(rpt *report, reps []repStats) {
	ref := make([][32]byte, len(reps[0].results))
	for i, res := range reps[0].results {
		ref[i] = jobDigest(res)
	}
	rpt.OutputDigest = outputDigest(reps[0].results)
	for k, st := range reps {
		jobs := append([]scenario.Result{st.setupResult}, st.results...)
		want := append([][32]byte{ref[0]}, ref...)
		for i, res := range jobs {
			rpt.Attempted++
			switch {
			case res.Err != nil:
				rpt.Failed++
				rpt.Problems = append(rpt.Problems, fmt.Sprintf("rep %d job %d: %v", k, i, res.Err))
			case i >= len(want) || jobDigest(res) != want[i]:
				rpt.Failed++
				rpt.Problems = append(rpt.Problems, fmt.Sprintf("rep %d job %d: digest differs from rep 0", k, i))
			}
		}
		if st.output != reps[0].output {
			rpt.Problems = append(rpt.Problems, fmt.Sprintf("rep %d: formatted output differs from rep 0", k))
		}
		rpt.Problems = append(rpt.Problems, st.problems...)
	}
	rpt.FailFrac = float64(rpt.Failed) / float64(rpt.Attempted)
	rpt.Correct = len(rpt.Problems) == 0
}

// batchCPUs is the process CPU time of each repetition's timed batch.
func batchCPUs(reps []repStats) []float64 {
	var out []float64
	for _, st := range reps {
		out = append(out, (st.cpuEnd - st.cpuSetupEnd).Seconds())
	}
	return out
}

func nodeSeconds(results []scenario.Result) float64 {
	var s float64
	for _, res := range results {
		s += float64(res.Config.N) * res.Config.Duration
	}
	return s
}

// endToEnd reduces repetitions to the end-to-end metrics. Every time is
// process CPU time: on a shared virtual machine the wall clock also
// counts the time the host runs other guests, which spread the batch
// wall times of the same work over 2x while their CPU times spread over
// 1.4x. Set-up time and heap are medians over every repetition. Batch
// and run times come from the fastest quarter of the repetitions (see
// fastQuarter): the batch time is their median and run-time percentiles
// pool their jobs.
func endToEnd(w workload, reps []repStats, rpt *report) map[string]metric {
	var setups, heaps, runs []float64
	for _, st := range reps {
		setups = append(setups, (st.cpuSetupEnd - st.cpuStart).Seconds())
		heaps = append(heaps, float64(st.peakHeapB)/(1<<20))
		rpt.BatchWallsS = append(rpt.BatchWallsS, st.end.Sub(st.setupEnd).Seconds())
	}
	fast := fastQuarter(reps)
	for _, st := range fast {
		for _, d := range st.runs {
			runs = append(runs, float64(d.Nanoseconds())/1e6)
		}
	}
	rpt.SetupCPUsS, rpt.BatchCPUsS = setups, batchCPUs(reps)
	cpu := median(batchCPUs(fast))
	rpt.TailPct, rpt.RunSamples = w.tailPct, len(runs)
	return map[string]metric{
		"setup_s":              {median(setups), "s"},
		"cpu_s":                {cpu, "s"},
		"sim_node_s_per_cpu_s": {nodeSeconds(reps[0].results) / cpu, "node-s/cpu-s"},
		"run_cpu_ms_p50":       {percentile(runs, 50), "ms"},
		"run_cpu_ms_tail":      {percentile(runs, w.tailPct), "ms"},
		"peak_heap_mb":         {median(heaps), "MB"},
	}
}

// fastQuarter returns the fastest quarter of reps by batch CPU time,
// rounded up. On small shared VMs other tenants can also slow the
// memory system, and with it the CPU time of the whole process, by 2-3x
// for periods from seconds to many minutes. Interference only
// ever adds time, so the fastest repetitions are the closest to the
// program's own cost, and a run that is mostly slowed still reads right
// if a quarter of it is not.
func fastQuarter(reps []repStats) []repStats {
	s := append([]repStats(nil), reps...)
	sort.SliceStable(s, func(i, j int) bool {
		return s[i].cpuEnd-s[i].cpuSetupEnd < s[j].cpuEnd-s[j].cpuSetupEnd
	})
	return s[:(len(s)+3)/4]
}

// counters are exact: they come from the results, which every
// repetition reproduces bit for bit.
func counters(r *rep, c map[string]float64) {
	var tx, rxs, del, coll, back, ctrl, data float64
	for _, res := range r.results {
		m := res.Medium
		tx += float64(m.Transmissions)
		rxs += float64(m.RxScheduled)
		del += float64(m.Deliveries)
		coll += float64(m.Collisions)
		back += float64(m.Backoffs)
		ctrl += float64(m.ControlBytes)
		data += float64(m.DataBytes)
	}
	c["jobs"] = float64(len(r.results))
	c["node_s"] = nodeSeconds(r.results)
	c["medium.transmissions"] = tx
	c["medium.rx_scheduled"] = rxs
	c["medium.deliveries"] = del
	c["medium.collisions"] = coll
	c["medium.backoffs"] = back
	c["medium.control_bytes"] = ctrl
	c["medium.data_bytes"] = data
	c["engine.trace_replays"] = float64(r.hits)
	c["engine.trace_recordings"] = float64(r.misses)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer assembles the traced run's per-layer metrics.
func perLayer(reps []repStats, c map[string]float64, shares map[string]float64) map[string]metric {
	m := map[string]metric{}
	for _, name := range cpuMetrics {
		m[name] = metric{shares[name], "share"}
	}
	m["medium.tx_per_node_s"] = metric{ratio(c["medium.transmissions"], c["node_s"]), "1/s"}
	m["medium.rx_per_tx"] = metric{ratio(c["medium.rx_scheduled"], c["medium.transmissions"]), "count"}
	m["medium.deliver_frac"] = metric{ratio(c["medium.deliveries"], c["medium.rx_scheduled"]), "frac"}
	m["medium.collision_frac"] = metric{ratio(c["medium.collisions"], c["medium.rx_scheduled"]), "frac"}
	m["medium.backoffs_per_tx"] = metric{ratio(c["medium.backoffs"], c["medium.transmissions"]), "count"}
	m["medium.ctrl_byte_frac"] = metric{ratio(c["medium.control_bytes"], c["medium.control_bytes"]+c["medium.data_bytes"]), "frac"}
	m["engine.trace_hit_rate"] = metric{ratio(c["engine.trace_replays"], c["engine.trace_replays"]+c["engine.trace_recordings"]), "frac"}

	span := func(name string, scale float64) float64 {
		var v []float64
		for _, st := range reps {
			v = append(v, st.spans[name].Seconds()*scale)
		}
		return median(v)
	}
	var tails, gcs, allocs []float64
	for _, st := range reps {
		tails = append(tails, st.tailFrac)
		gcs = append(gcs, float64(st.gcCycles))
		allocs = append(allocs, float64(st.allocB)/(1<<20)/(c["node_s"]/1000))
	}
	m["engine.tail_frac"] = metric{median(tails), "frac"}
	m["span.plan_ms"] = metric{span("plan", 1e3), "ms"}
	m["span.sweep_s"] = metric{span("sweep", 1), "s"}
	for _, name := range []string{"reduce", "format", "artifact_write", "artifact_read", "merge"} {
		m["span."+name+"_ms"] = metric{span(name, 1e3), "ms"}
	}
	m["runtime.alloc_mb_per_node_ks"] = metric{median(allocs), "MB/node-ks"}
	m["runtime.gc_cycles"] = metric{median(gcs), "count"}
	return m
}

func median(v []float64) float64 { return percentile(v, 50) }

// percentile is the nearest-rank percentile of v, except that the median
// of an even count averages the middle two.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if p == 50 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// startProfile starts a CPU profile into path and returns the function
// that stops it; a failure to start or to write lands in *errp.
func startProfile(path string, errp *error) func() {
	f, err := os.Create(path)
	if err != nil {
		*errp = err
		return func() {}
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		*errp = err
		return func() {}
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			*errp = err
		}
	}
}
