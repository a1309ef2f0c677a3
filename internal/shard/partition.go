// Package shard is the crash-tolerant distributed-execution layer over
// the sweep engine: deterministic partitioning of a flattened job grid
// across processes, versioned raw-counter artifacts with integrity
// checks (one per shard, merged by cmd/mergefigs), and a crash-safe
// checkpoint journal that makes a SIGKILLed sweep resumable at the
// granularity of one replication. Batch drives all three: it is the one
// runner cmd/figures and cmd/sweep execute their job grids through.
//
// Everything in the package is keyed by config fingerprints
// (scenario.Config.Fingerprint — seed included) and a grid fingerprint
// over the whole ordered job list, so shards produced from mismatched
// flags, figure sets or code-changed grids are detected instead of
// silently merged. Because the metrics layer pools raw numerators and
// denominators (metrics.Counters round-trips a per-run Summary bit for
// bit), a sharded run merged back together is byte-identical to the
// single-process run — exact, not approximate.
package shard

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Partition returns the job indices assigned to 1-based shard k of n,
// in ascending index order. Assignment is by LPT cost rank: jobs are
// ranked by (cost descending, index ascending) — the same priority the
// engine's longest-job-first queue uses — and dealt to shards in
// serpentine (boustrophedon) order, so each shard receives one job from
// every consecutive cost band and the per-shard cost totals stay within
// one job of balanced even when costs are strongly skewed (ODMRP jobs
// cost ~2× SS-SPST at equal N·T). The assignment is a pure function of
// (costs, k, n): every process computes the same partition without
// coordination, and the shards are disjoint and jointly exhaustive.
func Partition(costs []float64, k, n int) []int {
	if n < 1 {
		n = 1
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	rank := make([]int, len(costs))
	for i := range rank {
		rank[i] = i
	}
	sort.SliceStable(rank, func(a, b int) bool {
		if costs[rank[a]] != costs[rank[b]] {
			return costs[rank[a]] > costs[rank[b]]
		}
		return rank[a] < rank[b]
	})
	var sel []int
	for r, job := range rank {
		round, pos := r/n, r%n
		if round%2 == 1 {
			pos = n - 1 - pos
		}
		if pos == k-1 {
			sel = append(sel, job)
		}
	}
	sort.Ints(sel)
	return sel
}

// ParseSpec parses a "-shard k/n" flag value ("2/3") into its 1-based
// shard index and shard count.
func ParseSpec(s string) (k, n int, err error) {
	bad := func() (int, int, error) {
		return 0, 0, fmt.Errorf("shard: bad spec %q (want k/n with 1 <= k <= n, e.g. 2/3)", s)
	}
	a, b, ok := strings.Cut(strings.TrimSpace(s), "/")
	if !ok {
		return bad()
	}
	k, errK := strconv.Atoi(strings.TrimSpace(a))
	n, errN := strconv.Atoi(strings.TrimSpace(b))
	if errK != nil || errN != nil || k < 1 || n < 1 || k > n {
		return bad()
	}
	return k, n, nil
}
