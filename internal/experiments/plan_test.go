package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/shard"
)

// TestPlanArtifactRoundTripByteIdentity is the tentpole guarantee in
// miniature: real engine results serialized through shard records (raw
// counters + JSON) and rehydrated must reduce to byte-identical tables.
// It also pins that a PlanSpec round-tripped through JSON (the artifact
// Meta path cmd/mergefigs takes) rebuilds the identical grid.
func TestPlanArtifactRoundTripByteIdentity(t *testing.T) {
	ps := PlanSpec{Figures: []int{10, 19}, Duration: 40, Seeds: 2, BaseSeed: 1}
	plan, err := ps.Plan()
	if err != nil {
		t.Fatal(err)
	}
	jobs := plan.Jobs()
	results := scenario.DefaultEngine().Sweep(jobs)

	format := func(tbls []Table) string {
		var b strings.Builder
		for _, tbl := range tbls {
			b.WriteString(tbl.Format())
		}
		return b.String()
	}
	base, err := plan.Tables(results)
	if err != nil {
		t.Fatal(err)
	}
	want := format(base)
	if want == "" {
		t.Fatal("empty tables from live run")
	}

	// Serialize every result as an artifact record, round-trip through
	// JSON, rehydrate against the grid.
	rt := make([]scenario.Result, len(results))
	for i, res := range results {
		rec := shard.RecordOf(i, res, false)
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		var rec2 shard.JobRecord
		if err := json.Unmarshal(b, &rec2); err != nil {
			t.Fatal(err)
		}
		if rec2.FP != jobs[i].Fingerprint() {
			t.Fatalf("job %d: fingerprint drifted through JSON", i)
		}
		rt[i] = rec2.Result(jobs[i])
	}

	// Meta path: rebuild the plan from the JSON-round-tripped spec, as
	// cmd/mergefigs does, and verify the grid is the same one.
	mb, err := json.Marshal(plan.Spec())
	if err != nil {
		t.Fatal(err)
	}
	var ps2 PlanSpec
	if err := json.Unmarshal(mb, &ps2); err != nil {
		t.Fatal(err)
	}
	plan2, err := ps2.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if shard.GridFingerprint("figures", ps2, plan2.Jobs()) != shard.GridFingerprint("figures", ps, plan.Jobs()) {
		t.Fatal("PlanSpec JSON round-trip changed the grid fingerprint")
	}

	merged, err := plan2.Tables(rt)
	if err != nil {
		t.Fatal(err)
	}
	if got := format(merged); got != want {
		t.Fatalf("artifact round-trip changed the tables:\n--- live ---\n%s\n--- merged ---\n%s", want, got)
	}
}

// TestFailurePropagationToFigureRow chains a real engine failure into
// the figure reduction: the failed replication is excluded from its
// row's pool, the surviving-seed count lands on the point (NOK/NTotal),
// Format footnotes the partial coverage, and a row losing every seed
// plots nothing but leaves a table note.
func TestFailurePropagationToFigureRow(t *testing.T) {
	ps := PlanSpec{Figures: []int{7}, Duration: 40, Seeds: 2, BaseSeed: 1}
	plan, err := ps.Plan()
	if err != nil {
		t.Fatal(err)
	}
	jobs := plan.Jobs()

	// Synthetic but structurally-valid summaries for every replication —
	// built through metrics.Counters, the same rehydration the artifact
	// path uses.
	results := make([]scenario.Result, len(jobs))
	for i := range jobs {
		c := metrics.Counters{
			Sent: 100, Expected: 100, Delivered: 90 + i%5,
			DelaySumS: 4.2, UniquePayloadBytes: 51200, ControlBytes: 7000,
			UnavailSamples: 50, UnavailBroken: 3,
			TxJ: 1.5, RxJ: 2.5, Nodes: 50,
		}
		results[i] = scenario.Result{Config: jobs[i], Summary: c.Summary(), Attempts: 1}
	}

	// A genuine engine failure (watchdog abort) for row 0's second seed:
	// jobs 0,1 are the first row's two replications.
	failCfg := jobs[1]
	failCfg.EventBudget = 50
	if _, err := scenario.RunE(failCfg); err == nil {
		t.Fatal("tiny event budget did not fail the run")
	} else {
		results[1] = scenario.Result{Config: jobs[1], Err: err, Attempts: 1}
	}
	// Row 1 (jobs 2,3) loses every seed.
	results[2] = scenario.Result{Config: jobs[2], Err: results[1].Err, Attempts: 1}
	results[3] = scenario.Result{Config: jobs[3], Err: results[1].Err, Attempts: 1}

	tbls, err := plan.Tables(results)
	if err != nil {
		t.Fatal(err)
	}
	tbl := tbls[0]
	series := tbl.Series["SS-SPST-E"] // figure 7's first protocol, owner of rows 0 and 1
	if len(series) != len(velocities)-1 {
		t.Fatalf("series has %d points, want %d (the all-failed row plots nothing)",
			len(series), len(velocities)-1)
	}
	p0 := series[0]
	if p0.X != velocities[0] || p0.NOK != 1 || p0.NTotal != 2 {
		t.Fatalf("degraded point = %+v, want x=%g NOK=1 NTotal=2", p0, velocities[0])
	}
	for _, p := range series[1:] {
		if p.NOK != 2 || p.NTotal != 2 {
			t.Fatalf("healthy point carries wrong coverage: %+v", p)
		}
	}
	if len(tbl.Notes) != 1 || !strings.Contains(tbl.Notes[0], "all 2 replications failed") {
		t.Fatalf("all-failed row left no note: %q", tbl.Notes)
	}
	out := tbl.Format()
	if !strings.Contains(out, "partial: SS-SPST-E at x=1 pooled 1/2 seeds") {
		t.Fatalf("Format missing the partial-coverage footnote:\n%s", out)
	}
	if !strings.Contains(out, "note: ") {
		t.Fatalf("Format missing the all-failed note:\n%s", out)
	}
}
