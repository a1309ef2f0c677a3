package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// bench is the part of BENCHMARK.json compare needs.
type bench struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two sets of untraced runs, each a file of the
// benchmark's standard output. Runs pair by workload and seed. It exits 1
// when a metric got worse in at least nine tenths of the pairs, or when
// outputs or counters changed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-bench BENCHMARK.json] OLD NEW")
		return 2
	}
	var b bench
	data, err := os.ReadFile(*benchPath)
	if err == nil {
		err = json.Unmarshal(data, &b)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	old, err := readReports(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	cur, err := readReports(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}

	flagged := false
	for _, wl := range workloadNames(old, cur) {
		o, n := old[wl], cur[wl]
		seeds := commonSeeds(o, n)
		fmt.Fprintf(stdout, "%s: %d old run(s), %d new run(s), %d paired by seed\n", wl, len(o), len(n), len(seeds))
		for _, s := range seeds {
			for _, d := range behaviourDiffs(o[s], n[s]) {
				flagged = true
				fmt.Fprintf(stdout, "  seed %d: behaviour change: %s\n", s, d)
			}
		}
		if !sameHost(o, n) {
			fmt.Fprintln(stdout, "  hosts differ: timings not compared")
			continue
		}
		for _, m := range b.EndToEnd {
			var ov, nv []float64
			for _, r := range o {
				ov = append(ov, r.Metrics[m.Name].Value)
			}
			for _, r := range n {
				nv = append(nv, r.Metrics[m.Name].Value)
			}
			worse, change := 0, make([]float64, 0, len(seeds))
			for _, s := range seeds {
				c := n[s].Metrics[m.Name].Value/o[s].Metrics[m.Name].Value - 1
				if m.Better == "higher" {
					c = -c
				}
				change = append(change, c)
				if c > 0 {
					worse++
				}
			}
			verdict := "no clear change"
			med := median(change)
			switch {
			case len(seeds) == 0:
				verdict = "no paired runs"
			case float64(worse) >= 0.9*float64(len(seeds)) && med > 0:
				verdict = "WORSE"
				flagged = true
				if med > m.Bound {
					verdict += fmt.Sprintf(" (beyond the %.0f%% bound)", m.Bound*100)
				}
			case float64(len(seeds)-worse) >= 0.9*float64(len(seeds)) && med < 0:
				verdict = "better"
			}
			fmt.Fprintf(stdout, "  %-18s old %-10.4g new %-10.4g paired change %+6.1f%% (worse in %d/%d)  %s\n",
				m.Name, median(ov), median(nv), med*100, worse, len(seeds), verdict)
		}
	}
	if flagged {
		return 1
	}
	return 0
}

// readReports collects the untraced report lines of a file by workload
// and seed; a later run of a seed replaces an earlier one.
func readReports(path string) (map[string]map[uint64]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[uint64]report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r report
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Workload == "" || r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[uint64]report{}
		}
		out[r.Workload][r.Seed] = r
	}
	return out, sc.Err()
}

func workloadNames(a, b map[string]map[uint64]report) []string {
	var names []string
	for w := range a {
		if b[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	return names
}

func commonSeeds(a, b map[uint64]report) []uint64 {
	var seeds []uint64
	for s := range a {
		if _, ok := b[s]; ok {
			seeds = append(seeds, s)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return seeds
}

func sameHost(a, b map[uint64]report) bool {
	var hosts []host
	for _, m := range []map[uint64]report{a, b} {
		for _, r := range m {
			hosts = append(hosts, r.Host)
		}
	}
	for _, h := range hosts {
		if h != hosts[0] {
			return false
		}
	}
	return true
}

// behaviourDiffs lists what differs between two runs of one seed that
// must not differ on any host: the output digest and the counters.
func behaviourDiffs(a, b report) []string {
	var d []string
	if a.OutputDigest != b.OutputDigest {
		d = append(d, "output digest differs")
	}
	var names []string
	for k := range a.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if av, bv := a.Counters[k], b.Counters[k]; av != bv {
			d = append(d, fmt.Sprintf("counter %s %g -> %g", k, av, bv))
		}
	}
	return d
}
