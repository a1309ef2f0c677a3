// Command figures regenerates the paper's evaluation figures (7–16) and
// prints each as an aligned text table, plus the repository's extension
// tables: 17 — the cross-mobility comparison (random waypoint vs
// Gauss-Markov vs RPGM vs Manhattan at the paper's baseline), 18 — the
// membership-churn sweep (PDR / unavailability / control overhead vs
// churn interval, all four protocols), and 19 — the network-lifetime
// study under finite batteries (dead-fraction timeline plus the
// first-death / half-dead / delivered-bytes summary; emits two tables),
// and 20 — the fault-injection robustness study (PDR / unavailability /
// control overhead vs Gilbert-Elliott loss burst length and vs
// crash/reboot rate; emits two tables), and 21 — the concurrent-group
// sweep (PDR / unavailability / control overhead vs the number of
// Zipf-popular multicast groups multiplexed over each node's radio).
//
// Usage:
//
//	figures [-quick] [-duration 1800] [-seeds 5] [-fig 7,9,17,18,21]
//	        [-mobility gauss-markov,rpgm,manhattan,rwp] [-workers N]
//	        [-shard k/n -out shard.json] [-journal FILE [-resume]]
//	        [-retries N] [-deadline SECONDS] [-check cheap|full|off]
//	        [-chaos-fs seed,rate]
//
// All requested figures are flattened into ONE globally scheduled batch
// on the shared sweep engine: the longest runs start first across figure
// boundaries, worker arenas stay hot for the whole session, and the runs
// sharing a (mobility, seed) point replay one recorded movement trace.
// Progress streams to stderr as runs land.
//
// With -quick the sweep uses short runs (the same setting the test suite
// uses); curve shapes are stable well before the paper's 1800 s horizon.
// -mobility selects the models compared in table 17; -workers bounds the
// engine (default: GOMAXPROCS).
//
// # Crash tolerance and sharding
//
// -shard k/n runs only the k-th of n deterministic, cost-balanced slices
// of the flattened (figure point × seed) grid and writes a raw-counter
// artifact (to -out) instead of tables; cmd/mergefigs validates and
// merges the n artifacts into tables byte-identical to an unsharded run
// with the same flags. -journal FILE checkpoints every completed
// replication crash-safely; -resume skips replications the journal
// already holds, so a SIGKILLed batch re-runs at most the one
// replication that was in flight. -retries bounds re-execution of failed
// replications; persistent failures surface as partial-coverage
// footnotes on the affected points rather than aborting the batch. On
// SIGINT/SIGTERM the journal is flushed before exiting non-zero; a
// second signal force-exits immediately.
//
// # Hardening knobs
//
// -deadline bounds each replication's wall-clock time (a typed,
// retryable failure — never classified deterministic). -check selects
// the end-of-run invariant tier: cheap (default; the O(N) conservation
// laws), full (adds the delivered-tally recount), or off. -chaos-fs
// seed,rate threads a deterministic fault-injecting filesystem under
// the journal and artifact writers — a test hook for exercising the
// crash-tolerance machinery, not for production sweeps.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/shard"
)

func main() {
	quick := flag.Bool("quick", false, "short runs (180 s, 2 seeds)")
	duration := flag.Float64("duration", 0, "simulated seconds per run (overrides -quick)")
	seeds := flag.Int("seeds", 0, "seeds averaged per point (overrides -quick)")
	figs := flag.String("fig", "", "comma-separated figure numbers (default: all)")
	mob := flag.String("mobility", "", "comma-separated mobility models for the cross-mobility table 17 (default: rwp,gauss-markov,rpgm,manhattan)")
	var bf shard.Flags
	bf.Register(flag.CommandLine, "figures", "tables")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(2)
	}

	opts := experiments.Full()
	if *quick {
		opts = experiments.Quick()
	}
	if *duration > 0 {
		opts.Duration = *duration
	}
	if *seeds > 0 {
		opts.Seeds = *seeds
	}

	// Mobility names are canonicalized through the parser so the PlanSpec
	// (and with it the grid fingerprint) is identical however they were
	// spelled on the command line.
	var mobility []string
	if *mob != "" {
		for _, name := range strings.Split(*mob, ",") {
			k, err := scenario.ParseMobility(name)
			if err != nil {
				fail(err)
			}
			mobility = append(mobility, k.String())
		}
	}

	want := experiments.AllFigures()
	if *figs != "" {
		want = nil
		for _, s := range strings.Split(*figs, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fail(fmt.Errorf("unknown figure %q", s))
			}
			want = append(want, n)
		}
	}

	ps := experiments.PlanSpec{
		Figures:  want,
		Mobility: mobility,
		Duration: opts.Duration,
		Seeds:    opts.Seeds,
		BaseSeed: opts.BaseSeed,
	}
	plan, err := ps.Plan()
	if err != nil {
		fail(err)
	}
	b := shard.Batch{Kind: "figures", Cfgs: plan.Jobs(), Meta: ps}
	results, err := b.Run(bf)
	if err != nil {
		fail(err)
	}
	if bf.Shard != "" {
		return // the shard artifact is the output
	}
	tables, err := plan.Tables(results)
	if err != nil {
		fail(err)
	}
	for _, tbl := range tables {
		fmt.Println(tbl.Format())
	}
}
