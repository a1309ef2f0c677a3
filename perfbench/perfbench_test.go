package main

import (
	"math"
	"testing"

	"repro/internal/scenario"
)

// tinySizes shrinks every workload to a few short jobs.
var tinySizes = sizes{
	paperFigures:  []int{7, 14},
	paperDuration: 5,
	paperSeeds:    1,

	scaleRuns:     2,
	scaleDuration: 5,

	faultVMax:     "5",
	faultSeeds:    2,
	faultDuration: 10,
}

func runTiny(t *testing.T, w workload, workers int) *rep {
	t.Helper()
	st := repStats{rep: newRep(w, 3, workers, t.TempDir())}
	if err := runRep(w, tinySizes, &st); err != nil {
		t.Fatalf("%s at %d worker(s): %v", w.name, workers, err)
	}
	for _, p := range st.problems {
		t.Errorf("%s at %d worker(s): %s", w.name, workers, p)
	}
	for i, res := range st.results {
		if res.Err != nil {
			t.Errorf("%s at %d worker(s): job %d: %v", w.name, workers, i, res.Err)
		}
	}
	return st.rep
}

// TestDigestIndependentOfWorkers checks that each workload's output
// digest and formatted output are the same at 1 and 2 engine workers.
// scale-500 runs without an engine, so its sequential results are
// checked against the same jobs swept on a 2-worker engine.
func TestDigestIndependentOfWorkers(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			one := runTiny(t, w, 1)
			two := runTiny(t, w, 2)
			if a, b := outputDigest(one.results), outputDigest(two.results); a != b {
				t.Errorf("digest at 1 worker %s, at 2 workers %s", a, b)
			}
			if one.output != two.output {
				t.Errorf("formatted output differs between 1 and 2 workers")
			}
			if jobDigest(one.setupResult) != jobDigest(one.results[0]) {
				t.Errorf("set-up job and first batch job disagree")
			}
			if w.name == "scale-500" {
				eng := scenario.NewEngine(2)
				defer eng.Close()
				swept := eng.Sweep(scaleConfigs(3, tinySizes))
				if a, b := outputDigest(one.results), outputDigest(swept); a != b {
					t.Errorf("digest through one RunContext %s, on a 2-worker engine %s", a, b)
				}
			}
		})
	}
}

func TestSharesFromTop(t *testing.T) {
	top := `File: perfbench
Type: cpu
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     300ms 30.00% 30.00%      400ms 40.00%  repro/internal/eventq.(*Queue).Pop
     200ms 20.00% 50.00%      900ms 90.00%  repro/internal/medium.(*Medium).send
     100ms 10.00% 60.00%      150ms 15.00%  runtime.mallocgc
      50ms  5.00% 65.00%       50ms  5.00%  runtime.gcAssistAlloc
     150ms 15.00% 80.00%      200ms 20.00%  runtime.gcBgMarkWorker
     200ms 20.00%   100%      200ms 20.00%  repro/internal/fwdpool.(*Pool[go.shape.struct {}]).Get
`
	got, err := sharesFromTop(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cpu.eventq":        0.3,
		"cpu.medium":        0.2,
		"cpu.core":          0,
		"cpu.runtime_gc":    0.25, // 200ms marking + 50ms assist
		"cpu.runtime_alloc": 0.1,  // 150ms allocating less the 50ms assist
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", k, got[k], v)
		}
	}
	if _, err := sharesFromTop("no rows here"); err == nil {
		t.Error("output without rows was accepted")
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5.5}, {90, 9}, {100, 10}, {10, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
}
