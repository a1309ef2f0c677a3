package shard

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/fsio"
	"repro/internal/runerr"
	"repro/internal/scenario"
)

// Flags are the batch-execution flags cmd/figures and cmd/sweep share:
// engine width, sharding, the checkpoint journal, retries and the
// hardening knobs.
type Flags struct {
	Workers  int     // engine width; 0 = GOMAXPROCS
	Shard    string  // "k/n" runs one slice of the grid; "" runs it all
	Out      string  // artifact path for Shard; "" = <tool>-shard-K-of-N.json
	Journal  string  // checkpoint journal path; "" = none
	Resume   bool    // skip replications the journal already holds
	Retries  int     // re-runs of a failed replication
	Deadline float64 // wall-clock seconds per replication; 0 = unlimited
	Check    string  // end-of-run invariant tier (scenario.ParseCheckTier)
	ChaosFS  string  // "seed,rate" fault injection under the writers (fsio.ParseSpec)
}

// Register declares the flags on fs. tool names the default artifact
// file; output names what an unsharded run prints ("tables", "CSV").
func (f *Flags) Register(fs *flag.FlagSet, tool, output string) {
	fs.IntVar(&f.Workers, "workers", 0, "sweep engine width (default: GOMAXPROCS)")
	fs.StringVar(&f.Shard, "shard", "", "run slice k/n of the job grid and write an artifact instead of "+output+" (merge with mergefigs)")
	fs.StringVar(&f.Out, "out", "", "artifact path for -shard (default "+tool+"-shard-K-of-N.json)")
	fs.StringVar(&f.Journal, "journal", "", "checkpoint journal: record every completed replication crash-safely")
	fs.BoolVar(&f.Resume, "resume", false, "skip replications already recorded in -journal")
	fs.IntVar(&f.Retries, "retries", 1, "re-runs of a failed replication before recording the failure (0 = none)")
	fs.Float64Var(&f.Deadline, "deadline", 0, "wall-clock seconds per replication before it fails typed (0 = unlimited)")
	fs.StringVar(&f.Check, "check", "cheap", "end-of-run invariant tier: cheap, full or off")
	fs.StringVar(&f.ChaosFS, "chaos-fs", "", "inject seed-scheduled I/O faults under journal/artifact writers, as \"seed,rate\" (test hook)")
}

// Batch is one job grid as cmd/figures and cmd/sweep run it: every
// replication of the grid, or one cost-balanced shard of it, on the
// default engine, with journal resume, progress on stderr and a flush on
// SIGINT/SIGTERM. The tools differ only in the grid they build and in
// how they print the results.
type Batch struct {
	Kind       string            // tool name: prefixes messages, binds journals and artifacts
	Cfgs       []scenario.Config // the job grid, in grid order
	Meta       any               // the grid's identity: fingerprinted, and the artifact's Meta
	WithGroups bool              // records carry per-group counters (see RecordOf)
	// Partial, if set, prints the output of the points whose every
	// replication is done when an unsharded run is interrupted, and
	// returns how many points it printed.
	Partial func(results []scenario.Result, done []bool) (int, error)
}

// Run executes the batch as f selects. An unsharded run returns one
// result per job in grid order. A sharded run writes its artifact to
// f.Out and returns nil results. Failed replications are results with
// Err set, not errors; Run's error reports a bad flag or a failed
// journal or artifact. On SIGINT/SIGTERM Run flushes the journal (and
// Partial) and exits the process non-zero; a second signal exits at once.
func (b *Batch) Run(f Flags) ([]scenario.Result, error) {
	checkTier, err := scenario.ParseCheckTier(f.Check)
	if err != nil {
		return nil, err
	}
	var fsys fsio.FS = fsio.OS
	if f.ChaosFS != "" {
		seed, rate, err := fsio.ParseSpec(f.ChaosFS)
		if err != nil {
			return nil, err
		}
		fsys = fsio.NewFaultFS(fsio.OS, seed, rate)
	}
	if f.Resume && f.Journal == "" {
		return nil, errors.New("-resume needs -journal")
	}

	// sel is the global job-index slice this process owns: the whole grid,
	// or its deterministic cost-balanced shard.
	sel := make([]int, len(b.Cfgs))
	for i := range sel {
		sel[i] = i
	}
	shardK, shardN := 1, 1
	if f.Shard != "" {
		if shardK, shardN, err = ParseSpec(f.Shard); err != nil {
			return nil, err
		}
		costs := make([]float64, len(b.Cfgs))
		for i, cfg := range b.Cfgs {
			costs[i] = cfg.Cost()
		}
		sel = Partition(costs, shardK, shardN)
		if f.Out == "" {
			f.Out = fmt.Sprintf("%s-shard-%d-of-%d.json", b.Kind, shardK, shardN)
		}
	}

	gridFP := GridFingerprint(b.Kind, b.Meta, b.Cfgs)
	// Execution-control knobs are excluded from config fingerprints, so
	// applying them after the grid is fingerprinted cannot move gridFP:
	// journals and artifacts stay resumable across watchdog settings.
	cfgs := slices.Clone(b.Cfgs)
	for i := range cfgs {
		cfgs[i].Deadline = f.Deadline
		cfgs[i].Check = checkTier
	}

	var journal *Journal
	if f.Journal != "" {
		var skipped int
		journal, skipped, err = OpenJournalFS(fsys, f.Journal, b.Kind, gridFP)
		if err != nil {
			return nil, err
		}
		if skipped > 0 {
			b.logf("journal: %d corrupt record(s) skipped; their jobs will re-run", skipped)
		}
	}

	if f.Workers > 0 {
		scenario.ConfigureDefaultEngine(f.Workers)
	}
	engine := scenario.DefaultEngine()
	engine.SetRetryPolicy(f.Retries, 100*time.Millisecond)

	// results/done are shared with the signal handler; mu guards them.
	var mu sync.Mutex
	results := make([]scenario.Result, len(cfgs))
	done := make([]bool, len(cfgs))

	// Resume: preset every journaled success; failures re-run (a transient
	// fault may pass this time — a deterministic one re-fails identically,
	// keeping the final output byte-identical either way).
	var todo []int
	for _, gi := range sel {
		if f.Resume {
			if rec, ok := journal.Lookup(cfgs[gi].Fingerprint()); ok && rec.Err == "" {
				results[gi] = rec.Result(cfgs[gi])
				done[gi] = true
				continue
			}
		}
		todo = append(todo, gi)
	}
	if resumed := len(sel) - len(todo); resumed > 0 {
		b.logf("resume: %d of %d replications already journaled, %d to run", resumed, len(sel), len(todo))
	}

	stop := b.trapSignals(f.Shard != "", &mu, journal, results, done)
	run := make([]scenario.Config, len(todo))
	for i, gi := range todo {
		run[i] = cfgs[gi]
	}
	start := time.Now()
	completed, lastPct := 0, -1
	engine.SweepFunc(run, func(i int, res scenario.Result) {
		gi := todo[i]
		mu.Lock()
		results[gi] = res
		done[gi] = true
		mu.Unlock()
		if journal != nil {
			if err := journal.Append(RecordOf(gi, res, b.WithGroups)); err != nil {
				b.logf("%v", err)
			}
		}
		completed++
		if pct := completed * 100 / len(run); pct != lastPct {
			lastPct = pct
			fmt.Fprintf(os.Stderr, "\r%s: %d/%d runs (%d%%)", b.Kind, completed, len(run), pct)
			if completed == len(run) {
				fmt.Fprintln(os.Stderr)
			}
		}
	})
	stop()
	b.reportFailures(results, sel)
	hits, misses := engine.TraceStats()
	b.logf("%d runs in %.1fs on %d worker(s); trace cache: %d replays / %d recordings",
		len(run), time.Since(start).Seconds(), engine.Workers(), hits, misses)

	if f.Shard == "" {
		return results, nil
	}
	meta, err := json.Marshal(b.Meta)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	art := &Artifact{
		Kind: b.Kind, Shard: shardK, Shards: shardN,
		TotalJobs: len(cfgs), GridFP: gridFP, Meta: meta,
	}
	for _, gi := range sel {
		art.Jobs = append(art.Jobs, RecordOf(gi, results[gi], b.WithGroups))
	}
	if err := WriteArtifactFS(fsys, f.Out, art); err != nil {
		return nil, err
	}
	b.logf("shard %d/%d: %d job(s) -> %s (grid %s)", shardK, shardN, len(sel), f.Out, gridFP)
	return nil, nil
}

// trapSignals installs the SIGINT/SIGTERM handler for one run and
// returns the function that removes it. The handler flushes the journal
// and, for an unsharded run, Partial's completed points, then exits 1.
// Tables and artifacts are whole-batch outputs: a partial one must not
// exist, and a partial shard must not look mergeable. A second signal
// exits at once, so an operator hammering ^C is not held hostage by a
// wedged flush.
func (b *Batch) trapSignals(sharded bool, mu *sync.Mutex, journal *Journal, results []scenario.Result, done []bool) (stop func()) {
	sigc := make(chan os.Signal, 2)
	quit := make(chan struct{})
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		var sig os.Signal
		select {
		case sig = <-sigc:
		case <-quit:
			return
		}
		go func() {
			<-sigc
			fmt.Fprintf(os.Stderr, "\n%s: second signal, exiting immediately\n", b.Kind)
			os.Exit(130)
		}()
		mu.Lock() // held until exit: no result lands after the flush
		n := 0
		if journal != nil {
			if err := journal.Flush(); err != nil {
				b.logf("%v", err)
			}
			n = journal.Len()
		}
		switch {
		case sharded:
			fmt.Fprintf(os.Stderr, "\n%s: %v: journal has %d record(s); artifact not written (re-run with -resume)\n", b.Kind, sig, n)
		case b.Partial != nil:
			points, err := b.Partial(results, done)
			if err != nil {
				b.logf("%v", err)
			}
			fmt.Fprintf(os.Stderr, "\n%s: %v: flushed %d completed point(s); journal has %d record(s)\n", b.Kind, sig, points, n)
		default:
			fmt.Fprintf(os.Stderr, "\n%s: %v: journal has %d record(s); re-run with -resume to continue\n", b.Kind, sig, n)
		}
		os.Exit(1)
	}()
	return func() {
		signal.Stop(sigc)
		close(quit)
	}
}

// logf prints one line to stderr under the tool's name.
func (b *Batch) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", b.Kind, fmt.Sprintf(format, args...))
}

// reportFailures prints a one-line failure census by taxonomy kind —
// "panic=2 deadline=1" — so a long sweep log answers "what broke" at a
// glance. Silent when everything passed.
func (b *Batch) reportFailures(results []scenario.Result, sel []int) {
	counts := map[string]int{}
	total := 0
	for _, gi := range sel {
		if err := results[gi].Err; err != nil {
			counts[runerr.Kind(err)]++
			total++
		}
	}
	if total == 0 {
		return
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, len(kinds))
	for i, k := range kinds {
		parts[i] = fmt.Sprintf("%s=%d", k, counts[k])
	}
	b.logf("%d failed replication(s) by kind: %s", total, strings.Join(parts, " "))
}
