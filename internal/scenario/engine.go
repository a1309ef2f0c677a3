package scenario

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/mobility"
	"repro/internal/runerr"
)

// Engine is the sweep scheduler: one cost-ordered work queue over one
// persistent pool of workers whose RunContext arenas stay hot across
// batches, plus a shared mobility-trace cache. It replaces the
// pool-per-Sweep design, whose nested use (RunSeeds inside a sweep
// worker) multiplied goroutines by GOMAXPROCS and rebuilt every arena per
// figure.
//
// Scheduling is longest-expected-job-first with Config.Cost (N·Duration)
// as the cost estimate, which keeps the tail of a batch short (a small
// job never straggles behind the batch's one giant run), with submission
// order breaking ties so the runs sharing a mobility trace stay adjacent
// and the cache's live footprint stays small.
//
// Every Sweep call participates in its own batch: the submitting
// goroutine drains jobs alongside the background workers, so an engine
// with 1 worker runs entirely on the caller (zero goroutines), and a
// nested Sweep from inside a worker makes progress on its own batch
// instead of deadlocking or spawning a second pool. Results are
// independent of worker count and completion order — every job is a
// deterministic function of its Config, and trace extension is
// order-independent (mobility.Recorded) — pinned by
// TestSweepWorkersBitIdentical.
type Engine struct {
	workers int
	cache   *TraceCache

	mu      sync.Mutex
	cond    *sync.Cond // signals queued work to background workers
	queue   jobHeap
	seq     uint64
	rcs     []*RunContext // idle arenas for participating callers
	started bool
	closed  bool

	// Bounded retry (SetRetryPolicy): failed jobs re-run up to retries
	// times with capped exponential backoff, except when a repeat attempt
	// reproduces the identical failure — runs are deterministic functions
	// of their config, so an identical second failure marks the job
	// deterministically broken and further attempts are pointless.
	retries int
	backoff time.Duration
}

// job is one queued run.
type job struct {
	cfg    Config
	key    TraceKey
	hasKey bool
	cost   float64
	seq    uint64
	batch  *batch
	index  int
}

// batch tracks one Sweep call's jobs.
type batch struct {
	results   []Result
	fn        func(int, Result)
	fnMu      sync.Mutex
	remaining int
	done      *sync.Cond // on Engine.mu
}

// NewEngine returns an engine that runs up to workers jobs concurrently:
// workers-1 background goroutines plus the goroutine calling Sweep.
// Background workers start lazily at the first Sweep and live until
// Close; the package-level Default engine is never closed.
func NewEngine(workers int) *Engine {
	if workers < 1 {
		workers = 1
	}
	e := &Engine{workers: workers, cache: NewTraceCache()}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// Workers returns the engine's concurrency (background workers + caller).
func (e *Engine) Workers() int { return e.workers }

// SetRetryPolicy configures bounded retry for failed jobs: a job whose
// run fails (isolated panic, watchdog abort, setup error) is re-run with
// the SAME config and ReplicationSeed up to retries more times, sleeping
// backoff·2^attempt (capped at 16·backoff) between attempts. A retry that
// reproduces the identical failure classifies the job as deterministic
// and stops immediately — retry exists for transient causes (memory
// pressure, a CI runner wobble), and a pure function of the seed that
// failed twice the same way will fail every time. The default policy is
// no retries. Result.Attempts records how many runs each job consumed.
func (e *Engine) SetRetryPolicy(retries int, backoff time.Duration) {
	if retries < 0 {
		retries = 0
	}
	e.mu.Lock()
	e.retries = retries
	e.backoff = backoff
	e.mu.Unlock()
}

// TraceStats returns the trace cache's cumulative replay hits and
// recording misses.
func (e *Engine) TraceStats() (hits, misses uint64) { return e.cache.Stats() }

// Close stops the background workers. Only transient engines (SweepN with
// a non-default worker count, tests) need closing; in-flight Sweep calls
// must have returned.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.cond.Broadcast()
}

// Sweep runs every configuration and returns results in input order.
func (e *Engine) Sweep(cfgs []Config) []Result {
	return e.sweep(cfgs, nil)
}

// SweepFunc is Sweep with a streaming hook: fn is called once per
// completed run (serialized, but in completion order, from whichever
// goroutine finished the run) with the config's index and its result.
// Aggregations that must be deterministic should buffer per group and
// reduce in index order once a group completes.
func (e *Engine) SweepFunc(cfgs []Config, fn func(i int, r Result)) []Result {
	return e.sweep(cfgs, fn)
}

func (e *Engine) sweep(cfgs []Config, fn func(int, Result)) []Result {
	if len(cfgs) == 0 {
		return nil
	}
	b := &batch{
		results:   make([]Result, len(cfgs)),
		fn:        fn,
		remaining: len(cfgs),
	}
	e.mu.Lock()
	b.done = sync.NewCond(&e.mu)
	if !e.started && e.workers > 1 {
		e.started = true
		for w := 0; w < e.workers-1; w++ {
			go e.workerLoop()
		}
	}
	for i := range cfgs {
		j := &job{cfg: cfgs[i], cost: cfgs[i].Cost(), batch: b, index: i, seq: e.seq}
		e.seq++
		if key, ok := traceKeyOf(j.cfg); ok {
			j.key, j.hasKey = key, true
			e.cache.register(key)
		}
		e.queue.push(j)
	}
	e.mu.Unlock()
	e.cond.Broadcast()

	// Participate: drain jobs (any batch's — strict LPT order) until this
	// batch completes; when the queue is empty but workers still hold our
	// jobs, block on the batch condition.
	e.mu.Lock()
	rc := e.takeRCLocked()
	for b.remaining > 0 {
		j := e.queue.pop()
		if j == nil {
			b.done.Wait()
			continue
		}
		e.mu.Unlock()
		rc = e.runJob(rc, j)
		e.mu.Lock()
	}
	e.rcs = append(e.rcs, rc)
	e.mu.Unlock()
	return b.results
}

// workerLoop is one background worker: a persistent RunContext draining
// the queue for the engine's whole life.
func (e *Engine) workerLoop() {
	rc := NewRunContext()
	e.mu.Lock()
	for {
		j := e.queue.pop()
		if j == nil {
			if e.closed {
				e.mu.Unlock()
				return
			}
			e.cond.Wait()
			continue
		}
		e.mu.Unlock()
		rc = e.runJob(rc, j)
		e.mu.Lock()
	}
}

// runJob executes one job on rc and accounts its completion. Called
// without the engine lock.
//
// A panic anywhere in the run — trace construction, protocol code, the
// kernel — is isolated to this job: it becomes Result.Err (with the stack
// for diagnosis), the rest of the batch keeps running, and the possibly
// half-mutated arena is discarded for a fresh one, which runJob returns
// for the caller to keep using. Errors RunTracedE itself reports (bad
// config, watchdog) are not panics and leave the arena reusable.
func (e *Engine) runJob(rc *RunContext, j *job) *RunContext {
	e.mu.Lock()
	retries, backoff := e.retries, e.backoff
	e.mu.Unlock()
	var res Result
	var prevErr error
	for attempt := 0; ; attempt++ {
		var panicked bool
		res, panicked = e.tryRunJob(rc, j)
		if panicked {
			rc = NewRunContext()
		}
		res.Attempts = attempt + 1
		if res.Err == nil || attempt >= retries {
			break
		}
		// Setup rejections and invariant violations are pure functions of
		// the config and build: re-running cannot change the verdict, so
		// the retry budget is not spent on them.
		if !runerr.Retryable(res.Err) {
			break
		}
		// Deterministic-failure classification: a failure that repeats
		// identically on the same seed cannot be transient. Panics compare
		// by normalized stack digest (frame addresses and goroutine IDs
		// masked), deadline expiries never compare equal (wall-clock time
		// is machine load, not config), everything else by message head.
		if runerr.SameFailure(res.Err, prevErr) {
			res.Err = runerr.Mark(runerr.ErrDeterministic,
				fmt.Errorf("%w (deterministic: identical failure on retry, %d attempts)", res.Err, res.Attempts))
			break
		}
		prevErr = res.Err
		// Each attempt consumes one trace-cache registration (tryRunJob
		// releases on exit), so a retry needs its own.
		if j.hasKey {
			e.cache.register(j.key)
		}
		if backoff > 0 {
			d := backoff << uint(attempt)
			if max := backoff << 4; d > max {
				d = max
			}
			time.Sleep(d) //detlint:allow wall-clock retry backoff between attempts; re-run results are seed-determined regardless of when they start
		}
	}
	b := j.batch
	b.results[j.index] = res
	if b.fn != nil {
		b.fnMu.Lock()
		b.fn(j.index, res)
		b.fnMu.Unlock()
	}
	e.mu.Lock()
	b.remaining--
	if b.remaining == 0 {
		b.done.Broadcast()
	}
	e.mu.Unlock()
	return rc
}

// tryRunJob runs one job under a recover fence. The trace release is
// deferred because acquire itself can panic (it lazily builds the mobility
// model) and an unreleased registration would pin the cache entry forever.
func (e *Engine) tryRunJob(rc *RunContext, j *job) (res Result, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			// The message leads with the job's config fingerprint and seed
			// so a failure in a merged shard log is attributable to the
			// exact grid cell that hit it, and the stack is truncated to a
			// fixed cap — panic payloads otherwise carry unbounded stack
			// strings through Result.Err into journals and artifacts. The
			// typed PanicError additionally carries the normalized digest
			// the retry loop classifies determinism by.
			err := runerr.NewPanic(j.cfg.Fingerprint(), j.cfg.Seed,
				fmt.Sprintf("%v (%v, N=%d)", r, j.cfg.Protocol, j.cfg.N),
				truncateStack(debug.Stack()))
			res = Result{Config: j.cfg, Err: err}
		}
	}()
	var trace *mobility.Recorded
	if j.hasKey {
		defer e.cache.release(j.key)
		trace = e.cache.acquire(j.cfg, j.key)
	}
	res, _ = rc.RunTracedE(j.cfg, trace)
	return res, false
}

// maxPanicStackBytes caps the stack trace carried by a panic-isolated
// Result.Err: enough frames to diagnose, bounded so journals, artifacts
// and merged logs stay readable when a whole shard's jobs fail the same
// way.
const maxPanicStackBytes = 2048

// truncateStack bounds a debug.Stack dump to maxPanicStackBytes, cutting
// at a line boundary and marking the elision.
func truncateStack(stack []byte) string {
	if len(stack) <= maxPanicStackBytes {
		return string(stack)
	}
	cut := stack[:maxPanicStackBytes]
	if i := strings.LastIndexByte(string(cut), '\n'); i > 0 {
		cut = cut[:i]
	}
	return string(cut) + "\n... [stack truncated]"
}

// takeRCLocked pops an idle arena for a participating caller, or builds
// one; callers return it after their batch so arenas persist across
// sweeps.
func (e *Engine) takeRCLocked() *RunContext {
	if n := len(e.rcs); n > 0 {
		rc := e.rcs[n-1]
		e.rcs[n-1] = nil
		e.rcs = e.rcs[:n-1]
		return rc
	}
	return NewRunContext()
}

// jobHeap is a max-heap on (cost, -seq): longest expected job first,
// submission order among equals.
type jobHeap struct {
	jobs []*job
}

func (h *jobHeap) before(a, b *job) bool {
	if a.cost != b.cost {
		return a.cost > b.cost
	}
	return a.seq < b.seq
}

func (h *jobHeap) push(j *job) {
	h.jobs = append(h.jobs, j)
	i := len(h.jobs) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.before(h.jobs[i], h.jobs[parent]) {
			break
		}
		h.jobs[i], h.jobs[parent] = h.jobs[parent], h.jobs[i]
		i = parent
	}
}

func (h *jobHeap) pop() *job {
	n := len(h.jobs)
	if n == 0 {
		return nil
	}
	top := h.jobs[0]
	n--
	h.jobs[0] = h.jobs[n]
	h.jobs[n] = nil
	h.jobs = h.jobs[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h.before(h.jobs[c+1], h.jobs[c]) {
			c++
		}
		if !h.before(h.jobs[c], h.jobs[i]) {
			break
		}
		h.jobs[i], h.jobs[c] = h.jobs[c], h.jobs[i]
		i = c
	}
	return top
}

// Default engine: one process-wide scheduler sized to the machine.
var (
	defaultEngine     *Engine
	defaultEngineOnce sync.Once
)

// DefaultEngine returns the process-wide engine (GOMAXPROCS-wide unless
// ConfigureDefaultEngine overrode it), creating it on first use. Sweep,
// RunSeeds, the experiments package and the CLIs all share it, so arenas
// and traces stay warm across figures.
func DefaultEngine() *Engine {
	defaultEngineOnce.Do(func() {
		if defaultEngineWidth == 0 {
			//detlint:allow process-wide engine singleton under sync.Once; scheduler state, not simulation state
			defaultEngineWidth = runtime.GOMAXPROCS(0)
		}
		//detlint:allow process-wide engine singleton under sync.Once; scheduler state, not simulation state
		defaultEngine = NewEngine(defaultEngineWidth)
	})
	return defaultEngine
}

var defaultEngineWidth int

// ConfigureDefaultEngine sets the shared engine's width (the CLIs'
// -workers flag). It must run before anything touches DefaultEngine; a
// late call with a different width panics rather than silently running at
// the wrong parallelism.
func ConfigureDefaultEngine(workers int) {
	if workers < 1 {
		workers = 1
	}
	if defaultEngine != nil && defaultEngine.Workers() != workers {
		panic("scenario: ConfigureDefaultEngine after the engine started")
	}
	//detlint:allow pre-start width configuration of the process-wide engine; a late change panics above
	defaultEngineWidth = workers
	DefaultEngine()
}

// Sweep runs every configuration on the shared engine and returns results
// in input order.
func Sweep(cfgs []Config) []Result {
	return DefaultEngine().Sweep(cfgs)
}

// SweepN is Sweep with an explicit concurrency. The default width routes
// to the shared engine; any other width runs on a transient engine with
// its own trace cache, closed before returning — results are bit-identical
// either way (TestSweepWorkersBitIdentical).
func SweepN(cfgs []Config, workers int) []Result {
	if workers < 1 {
		workers = 1
	}
	if d := DefaultEngine(); workers == d.Workers() {
		return d.Sweep(cfgs)
	}
	e := NewEngine(workers)
	defer e.Close()
	return e.Sweep(cfgs)
}
