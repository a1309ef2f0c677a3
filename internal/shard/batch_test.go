package shard

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
)

// tinyBatch is a six-job grid of 10- and 12-node runs a few simulated
// seconds long: unequal costs, so a two-way partition is not a plain
// alternation.
func tinyBatch() *Batch {
	var cfgs []scenario.Config
	for i := 0; i < 6; i++ {
		cfg := scenario.Default()
		cfg.N = 10 + 2*(i%2)
		cfg.AreaSide = 400
		cfg.GroupSize = 4
		cfg.Duration = 4
		cfg.Seed = scenario.ReplicationSeed(1, i/2)
		cfgs = append(cfgs, cfg)
	}
	return &Batch{Kind: "batchtest", Cfgs: cfgs, Meta: "tiny", WithGroups: true}
}

// records packages results as the artifact records they would become,
// marshaled, so two result sets compare byte for byte.
func records(t *testing.T, results []scenario.Result) []byte {
	t.Helper()
	recs := make([]JobRecord, len(results))
	for i, r := range results {
		recs[i] = RecordOf(i, r, true)
	}
	b, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBatchShardsMergeToUnsharded: shards 1/2 and 2/2 of a batch merge
// back into exactly the records of the unsharded run.
func TestBatchShardsMergeToUnsharded(t *testing.T) {
	b := tinyBatch()
	whole, err := b.Run(Flags{})
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) != len(b.Cfgs) {
		t.Fatalf("unsharded run returned %d results for %d jobs", len(whole), len(b.Cfgs))
	}
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "s1.json"), filepath.Join(dir, "s2.json")}
	for k, spec := range []string{"1/2", "2/2"} {
		res, err := b.Run(Flags{Shard: spec, Out: paths[k]})
		if err != nil {
			t.Fatal(err)
		}
		if res != nil {
			t.Fatalf("shard %s returned results; want nil after writing its artifact", spec)
		}
	}
	recs, err := Merge(readAll(t, paths), paths, b.Kind, GridFingerprint(b.Kind, b.Meta, b.Cfgs), len(b.Cfgs))
	if err != nil {
		t.Fatal(err)
	}
	merged := make([]scenario.Result, len(recs))
	for i, rec := range recs {
		merged[i] = rec.Result(b.Cfgs[i])
	}
	if got, want := records(t, merged), records(t, whole); !bytes.Equal(got, want) {
		t.Fatalf("merged shards differ from the unsharded run\n got %s\nwant %s", got, want)
	}
}

// TestBatchResumeRunsNothing: a journaled run followed by -resume takes
// every result from the journal, appends nothing and returns the same
// results.
func TestBatchResumeRunsNothing(t *testing.T) {
	b := tinyBatch()
	path := filepath.Join(t.TempDir(), "batch.journal")
	first, err := b.Run(Flags{Journal: path})
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	j, _, err := OpenJournal(path, b.Kind, GridFingerprint(b.Kind, b.Meta, b.Cfgs))
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != len(b.Cfgs) {
		t.Fatalf("journal holds %d records after the run, want %d", j.Len(), len(b.Cfgs))
	}

	again, err := b.Run(Flags{Journal: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("resume rewrote the journal; a fully journaled batch must run no job")
	}
	if !bytes.Equal(records(t, again), records(t, first)) {
		t.Fatal("resumed results differ from the journaled run")
	}
}

// TestBatchRunFlagErrors: bad flags come back as errors before any job
// runs, not as a process exit.
func TestBatchRunFlagErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		f    Flags
	}{
		{"resume without journal", Flags{Resume: true}},
		{"bad shard spec", Flags{Shard: "3/2"}},
		{"bad check tier", Flags{Check: "thorough"}},
	} {
		res, err := tinyBatch().Run(c.f)
		if err == nil {
			t.Errorf("%s: Run returned no error", c.name)
		}
		if res != nil {
			t.Errorf("%s: Run returned results alongside its error", c.name)
		}
	}
}
