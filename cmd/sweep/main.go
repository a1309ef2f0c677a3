// Command sweep runs an arbitrary parameter grid and emits one CSV row
// per (mobility, protocol, velocity, group size, group count, beacon,
// churn, battery, loss, crash-MTBF) point with each headline metric as
// mean ± CI95 across seeds — the raw material for custom plots beyond the
// paper's figures. With -raw it emits one row per seed instead.
// Single-seed points print a CI of 0.
//
// Usage:
//
//	sweep -protos ss-spst,ss-spst-e -vmax 1,5,10,20 -groupsize 10,30 \
//	      -groups 1,4,16 \
//	      -mobility rwp,gauss-markov,rpgm,manhattan \
//	      -churn 0,5,20 -battery 0,10 \
//	      -loss 0,4,16 -crash-mtbf 0,300 \
//	      -seeds 3 -duration 300 [-workers N] > results.csv
//
// -groupsize sweeps the primary group's receiver count; -groups sweeps the
// number of concurrent multicast groups (topics) multiplexed over each
// node's radio. -loss sweeps Gilbert-Elliott bursty channel loss by mean
// burst length; -crash-mtbf sweeps crash/reboot node faults (see the
// sweepgrid package for the full axis semantics).
//
// # Crash tolerance and sharding
//
// -shard k/n runs only the k-th of n deterministic, cost-balanced slices
// of the job grid and writes a raw-counter artifact (to -out) instead of
// CSV; cmd/mergefigs validates and merges the n artifacts into CSV
// byte-identical to an unsharded run. -journal FILE checkpoints every
// completed replication crash-safely (write-temp-fsync-rename per
// record); -resume skips replications the journal already holds, so a
// SIGKILLed sweep re-runs at most the one replication that was in
// flight. -retries bounds the re-execution of failed replications
// (identical consecutive failures are classified deterministic and not
// retried); persistent failures flow into the failed_runs column rather
// than aborting the sweep. On SIGINT/SIGTERM the journal is flushed and
// the CSV rows of every fully-completed point are emitted before exiting
// non-zero; a second signal force-exits immediately.
//
// -deadline bounds each replication's wall-clock time; -check selects
// the end-of-run invariant tier (cheap, full, off); -chaos-fs seed,rate
// injects deterministic I/O faults under the journal/artifact writers
// (a test hook for the crash-tolerance machinery).
//
// The grid runs as one batch on the shared sweep engine (cost-ordered
// queue, persistent worker arenas, shared mobility traces across the
// protocols at each point); progress streams to stderr.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/sweepgrid"
)

func main() {
	a := sweepgrid.Axes{}
	flag.StringVar(&a.Protos, "protos", "ss-spst,ss-spst-e", "comma-separated protocols")
	flag.StringVar(&a.VMaxs, "vmax", "1,5,10,20", "comma-separated max speeds (m/s)")
	flag.StringVar(&a.GroupSizes, "groupsize", "20", "comma-separated group sizes (receivers in the primary group)")
	flag.StringVar(&a.GroupCounts, "groups", "1", "comma-separated concurrent group (topic) counts; 1 = the paper's single group")
	flag.StringVar(&a.Beacons, "beacons", "2", "comma-separated beacon intervals (s)")
	flag.StringVar(&a.Churns, "churn", "0", "comma-separated membership-churn intervals (s); 0 = no churn")
	flag.StringVar(&a.Batteries, "battery", "0", "comma-separated per-node battery reserves (J); 0 = unlimited")
	flag.StringVar(&a.Losses, "loss", "0", "comma-separated Gilbert-Elliott mean loss burst lengths (packets); 0 = no injected loss")
	flag.StringVar(&a.CrashMTBFs, "crash-mtbf", "0", "comma-separated crash mean-time-between-failures (s); 0 = no crashes")
	flag.Float64Var(&a.CrashMTTR, "crash-mttr", 0, "crash mean repair time (s); 0 = MTBF/10")
	flag.StringVar(&a.Mobilities, "mobility", "rwp", "comma-separated mobility models (rwp, random-direction, gauss-markov, rpgm, manhattan, static)")
	flag.IntVar(&a.Seeds, "seeds", 2, "seeds per point")
	flag.Float64Var(&a.Duration, "duration", 180, "simulated seconds per run")
	flag.BoolVar(&a.Raw, "raw", false, "emit one row per seed instead of mean ± CI95 per point")
	var bf shard.Flags
	bf.Register(flag.CommandLine, "sweep", "CSV")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}

	points, cfgs, err := sweepgrid.Build(a)
	if err != nil {
		fail(err)
	}
	b := shard.Batch{
		Kind: "sweep", Cfgs: cfgs, Meta: a, WithGroups: true,
		Partial: func(results []scenario.Result, done []bool) (int, error) {
			return sweepgrid.WriteCompletedCSV(os.Stdout, a, points, results, done)
		},
	}
	results, err := b.Run(bf)
	if err != nil {
		fail(err)
	}
	if bf.Shard != "" {
		return // the shard artifact is the output
	}
	if err := sweepgrid.WriteCSV(os.Stdout, a, points, results); err != nil {
		fail(err)
	}
}
