package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/scenario"
)

// rep is one repetition of a workload as the benchmark sees it from
// outside the program: when set-up ended, the spans around each public
// call, the CPU time of every timed job, and the results.
type rep struct {
	workload string
	seed     uint64
	workers  int
	workDir  string // scratch space inside the checkout
	// onTimed, when set, is called as the timed batch starts and returns
	// the function that ends what it started (the traced CPU profile).
	onTimed func() func()
	stopped func()

	start, setupEnd, end          time.Time
	cpuStart, cpuSetupEnd, cpuEnd time.Duration // process CPU time at those instants
	mem                           runtime.MemStats
	allocB                        uint64 // bytes allocated in the timed batch
	gcCycles                      uint32 // collections in the timed batch
	spans                         map[string]time.Duration

	setupResult  scenario.Result
	results      []scenario.Result // the timed batch, in grid order
	runs         []time.Duration   // process CPU time of each timed job
	tailFrac     float64           // engine only: share of the sweep after the second-to-last completion
	hits, misses uint64            // engine only: trace cache replays and recordings in the sweep
	output       string            // the workload's formatted output
	problems     []string          // failed output checks
}

func newRep(w workload, seed uint64, workers int, workDir string) *rep {
	return &rep{
		workload: w.name, seed: seed, workers: workers, workDir: workDir,
		spans: map[string]time.Duration{},
	}
}

func (r *rep) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// span adds the process CPU time of f to the named call's span and
// labels f's CPU samples with it.
func (r *rep) span(name string, f func()) {
	c := processCPU()
	pprof.Do(context.Background(), pprof.Labels("workload", r.workload, "call", name), func(context.Context) { f() })
	r.spans[name] += processCPU() - c
}

// firstJob runs the workload's first job. Its completion ends set-up and
// starts the timed batch.
func (r *rep) firstJob(f func() scenario.Result) {
	r.span("first_job", func() { r.setupResult = f() })
	runtime.ReadMemStats(&r.mem)
	r.setupEnd, r.cpuSetupEnd = time.Now(), processCPU()
	if r.onTimed != nil {
		r.stopped = r.onTimed()
	}
}

// finish ends the timed batch.
func (r *rep) finish() {
	if r.stopped != nil {
		r.stopped()
	}
	r.end, r.cpuEnd = time.Now(), processCPU()
	before := r.mem
	runtime.ReadMemStats(&r.mem)
	r.allocB = r.mem.TotalAlloc - before.TotalAlloc
	r.gcCycles = r.mem.NumGC - before.NumGC
}

// sweep runs jobs as one engine batch and records each job's CPU time:
// the process CPU time since the previous completion (or the batch
// start). That is the job's own cost only on a one-worker engine.
func (r *rep) sweep(eng *scenario.Engine, jobs []scenario.Config) {
	h0, m0 := eng.TraceStats()
	var mu sync.Mutex
	var done []time.Time
	start, last := time.Now(), processCPU()
	r.span("sweep", func() {
		r.results = eng.SweepFunc(jobs, func(int, scenario.Result) {
			mu.Lock()
			now, cpu := time.Now(), processCPU()
			r.runs = append(r.runs, cpu-last)
			last = cpu
			done = append(done, now)
			mu.Unlock()
		})
	})
	end := time.Now()
	if n := len(done); n >= 2 {
		sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
		r.tailFrac = end.Sub(done[n-2]).Seconds() / end.Sub(start).Seconds()
	}
	h1, m1 := eng.TraceStats()
	r.hits, r.misses = h1-h0, m1-m0
}

// jobDigest is the SHA-256 of one job's Summary and channel statistics.
// %v prints every float with the shortest exact representation, so two
// digests agree exactly when the numbers do.
func jobDigest(res scenario.Result) [32]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("%+v|%+v", res.Summary, res.Medium)))
}

// outputDigest is the SHA-256 over every job's digest in grid order.
func outputDigest(results []scenario.Result) string {
	h := sha256.New()
	for i, res := range results {
		d := jobDigest(res)
		h.Write([]byte(strconv.Itoa(i)))
		h.Write(d[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// processCPU is the user and system CPU time the process has used. On a
// virtual machine it leaves out the time the host ran other guests.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
