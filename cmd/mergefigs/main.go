// Command mergefigs validates and merges the shard artifacts written by
// `figures -shard k/n` or `sweep -shard k/n` and emits the final output
// — figure tables or sweep CSV — byte-identical to the corresponding
// unsharded run. This works because artifacts carry raw counters, not
// derived means: the merge rehydrates each replication's summary bit for
// bit and pools them through the exact reduction the single-process path
// uses.
//
// Usage:
//
//	mergefigs shard-1.json shard-2.json shard-3.json > output
//
// Every artifact is integrity-checked (CRC envelope, schema version) and
// the set is validated as one complete, consistent grid before anything
// is pooled: artifacts from different grids (mismatched flags, figure
// sets or code versions), mixed shard splits, missing or duplicate
// shards, duplicate jobs and coverage holes are all rejected with errors
// naming the offending files. Shards with persistently failed
// replications merge fine — the affected points report partial seed
// coverage (figures footnotes, the sweep failed_runs column) instead of
// aborting the merge.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/sweepgrid"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: mergefigs shard-1.json shard-2.json ... > output")
		flag.PrintDefaults()
	}
	flag.Parse()
	paths := flag.Args()
	if len(paths) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(paths); err != nil {
		fmt.Fprintln(os.Stderr, "mergefigs:", err)
		// The shard fabric's errors are typed; translate each class into
		// the operator's next move.
		switch {
		case errors.Is(err, shard.ErrCorrupt):
			fmt.Fprintln(os.Stderr, "mergefigs: (corrupt input: delete the named file and re-run its shard)")
		case errors.Is(err, shard.ErrGridMismatch):
			fmt.Fprintln(os.Stderr, "mergefigs: (grid mismatch: regenerate every shard with the same flags and code version)")
		case errors.Is(err, shard.ErrIncomplete):
			fmt.Fprintln(os.Stderr, "mergefigs: (incomplete results: re-run the missing shard(s), with -resume where a journal exists)")
		}
		os.Exit(1)
	}
}

func run(paths []string) error {
	arts := make([]*shard.Artifact, len(paths))
	for i, p := range paths {
		a, err := shard.ReadArtifact(p)
		if err != nil {
			return err
		}
		arts[i] = a
	}

	// The first artifact's Meta nominates the grid; Merge then verifies
	// every artifact (including the first) against the grid rebuilt from
	// it, so a lying Meta cannot pass — the fingerprint covers every job.
	switch kind := arts[0].Kind; kind {
	case "figures":
		var ps experiments.PlanSpec
		if err := json.Unmarshal(arts[0].Meta, &ps); err != nil {
			return fmt.Errorf("%s: figures meta: %w", paths[0], err)
		}
		plan, err := ps.Plan()
		if err != nil {
			return fmt.Errorf("%s: rebuilding plan: %w", paths[0], err)
		}
		results, nFailed, err := mergeResults(arts, paths, kind, ps, plan.Jobs())
		if err != nil {
			return err
		}
		tables, err := plan.Tables(results)
		if err != nil {
			return err
		}
		for _, tbl := range tables {
			fmt.Println(tbl.Format())
		}
		fmt.Fprintf(os.Stderr, "mergefigs: %d shard(s), %d job(s), %d failed replication(s), %d table(s)\n",
			len(arts), plan.NumJobs(), nFailed, len(tables))
		return nil

	case "sweep":
		var a sweepgrid.Axes
		if err := json.Unmarshal(arts[0].Meta, &a); err != nil {
			return fmt.Errorf("%s: sweep meta: %w", paths[0], err)
		}
		points, cfgs, err := sweepgrid.Build(a)
		if err != nil {
			return fmt.Errorf("%s: rebuilding grid: %w", paths[0], err)
		}
		results, nFailed, err := mergeResults(arts, paths, kind, a, cfgs)
		if err != nil {
			return err
		}
		if err := sweepgrid.WriteCSV(os.Stdout, a, points, results); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mergefigs: %d shard(s), %d job(s), %d failed replication(s), %d point(s)\n",
			len(arts), len(cfgs), nFailed, len(points))
		return nil

	default:
		return fmt.Errorf("%s: unknown artifact kind %q (want \"figures\" or \"sweep\")", paths[0], kind)
	}
}

// mergeResults runs the shard-set validation against the grid rebuilt
// from meta and rehydrates one result per job, double-checking each
// record's config fingerprint against the grid slot it claims.
func mergeResults(arts []*shard.Artifact, paths []string, kind string, meta any, cfgs []scenario.Config) ([]scenario.Result, int, error) {
	records, err := shard.Merge(arts, paths, kind, shard.GridFingerprint(kind, meta, cfgs), len(cfgs))
	if err != nil {
		return nil, 0, err
	}
	results := make([]scenario.Result, len(cfgs))
	nFailed := 0
	for i, rec := range records {
		if want := cfgs[i].Fingerprint(); rec.FP != want {
			return nil, 0, fmt.Errorf("config-mismatched shard: job %d carries config fingerprint %s, the grid expects %s", i, rec.FP, want)
		}
		if rec.Err != "" {
			nFailed++
		}
		results[i] = rec.Result(cfgs[i])
	}
	return results, nFailed, nil
}
