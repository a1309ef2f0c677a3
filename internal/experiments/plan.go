package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/scenario"
)

// PlanSpec is the serializable identity of a figure batch: everything
// that determines the flattened job grid and its reduction, and nothing
// else. It is the Meta document embedded in shard artifacts, so a merge
// process can rebuild the exact plan the shards ran from and verify the
// grid fingerprint before pooling any record.
type PlanSpec struct {
	Figures  []int    `json:"figures"`
	Mobility []string `json:"mobility,omitempty"` // table 17's model set; empty = default
	Duration float64  `json:"duration"`
	Seeds    int      `json:"seeds"`
	BaseSeed uint64   `json:"base_seed"`
}

// runKey locates one replication in its figure's reduction: which spec,
// which sweep row of it, which seed slot.
type runKey struct{ fig, row, seed int }

// Plan is a fully-resolved figure batch: the declared figures, their
// flattened (row × seed) job grid in a fixed order, and the reduction
// from per-job results back to tables. The grid order, every config in
// it, and the reduction are pure functions of the PlanSpec — that is
// what makes sharding safe: k processes each build the same Plan, run
// disjoint index sets, and any one of them (or cmd/mergefigs) can pool
// the union into byte-identical output.
type Plan struct {
	spec  PlanSpec
	o     Options
	kinds []scenario.MobilityKind
	cfgs  []scenario.Config
	keys  []runKey
}

// Plan resolves the spec into its job grid. It fails on unknown figure
// numbers or mobility model names.
func (ps PlanSpec) Plan() (*Plan, error) {
	o := Options{Duration: ps.Duration, Seeds: ps.Seeds, BaseSeed: ps.BaseSeed}
	if o.Seeds < 1 {
		return nil, fmt.Errorf("experiments: plan needs seeds >= 1, got %d", o.Seeds)
	}
	var kinds []scenario.MobilityKind
	for _, name := range ps.Mobility {
		k, err := scenario.ParseMobility(name)
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, k)
	}
	p := &Plan{spec: ps, o: o, kinds: kinds}
	specs, err := p.buildSpecs()
	if err != nil {
		return nil, err
	}
	p.cfgs, p.keys = flatten(o, specs)
	return p, nil
}

// flatten expands declared figures into the ordered (row × seed) job
// grid, remembering each job's reduction slot. Grid order is the
// declaration order — a pure function of (Options, figure set), which
// every sharding process must agree on.
func flatten(o Options, specs []*figSpec) ([]scenario.Config, []runKey) {
	var cfgs []scenario.Config
	var keys []runKey
	for fi, sp := range specs {
		for ri, r := range sp.rows {
			for s := 0; s < o.Seeds; s++ {
				cfg := r.cfg
				cfg.Seed = scenario.ReplicationSeed(o.BaseSeed, s)
				cfgs = append(cfgs, cfg)
				keys = append(keys, runKey{fi, ri, s})
			}
		}
	}
	return cfgs, keys
}

// buildSpecs re-declares the plan's figures. Specs hold the mutable
// reduction state (table series), so they are rebuilt for every Tables
// call rather than cached — declaration is deterministic and cheap.
func (p *Plan) buildSpecs() ([]*figSpec, error) {
	specs := make([]*figSpec, len(p.spec.Figures))
	for i, n := range p.spec.Figures {
		sp, err := spec(n, p.o, p.kinds)
		if err != nil {
			return nil, err
		}
		specs[i] = sp
	}
	return specs, nil
}

// Spec returns the serializable identity the plan was built from.
func (p *Plan) Spec() PlanSpec { return p.spec }

// NumJobs returns the size of the flattened job grid.
func (p *Plan) NumJobs() int { return len(p.cfgs) }

// Jobs returns the grid's configs in grid order. The slice is shared;
// callers must not mutate it.
func (p *Plan) Jobs() []scenario.Config { return p.cfgs }

// Tables reduces one result per grid job (indexed like Jobs) into the
// plan's figure tables — the same pooling, CI and ordering as a live
// Generate run, so a sharded-and-merged batch formats byte-identically
// to a single-process one. Failed replications are excluded from their
// row's pool: the point reports the surviving seed count via NOK/NTotal,
// and a row with no survivor contributes a table note instead of a
// fabricated zero point.
func (p *Plan) Tables(results []scenario.Result) ([]Table, error) {
	if len(results) != len(p.cfgs) {
		return nil, fmt.Errorf("experiments: plan has %d jobs, got %d results", len(p.cfgs), len(results))
	}
	specs, err := p.buildSpecs()
	if err != nil {
		return nil, err
	}
	return reduceSpecs(p.o, specs, p.keys, results), nil
}

// reduceSpecs pools per-job results back into figure tables: per-row
// seed pools (seed-indexed, so completion and shard order cannot perturb
// the reduction) through the bias-corrected metrics.Mean and CI95. It is
// the single reduction path behind both live generation and shard
// merging. Failed replications are excluded from their row's pool —
// the point carries the surviving count in NOK/NTotal; a row with no
// survivor plots nothing and leaves a Table note instead.
func reduceSpecs(o Options, specs []*figSpec, keys []runKey, results []scenario.Result) []Table {
	type rowBuf struct {
		sums []metrics.Summary
		ok   []bool
	}
	bufs := make([][]rowBuf, len(specs))
	for fi, sp := range specs {
		bufs[fi] = make([]rowBuf, len(sp.rows))
		for ri := range bufs[fi] {
			bufs[fi][ri] = rowBuf{sums: make([]metrics.Summary, o.Seeds), ok: make([]bool, o.Seeds)}
		}
	}
	for i, res := range results {
		k := keys[i]
		if res.Err != nil {
			continue
		}
		bufs[k.fig][k.row].sums[k.seed] = res.Summary
		bufs[k.fig][k.row].ok[k.seed] = true
	}

	for fi, sp := range specs {
		for ri := range sp.rows {
			r := &sp.rows[ri]
			b := &bufs[fi][ri]
			var good []metrics.Summary
			for si, ok := range b.ok {
				if ok {
					good = append(good, b.sums[si])
				}
			}
			nok := len(good)
			if nok == 0 {
				noted := map[int]bool{}
				for _, out := range r.outs {
					if noted[out.tbl] {
						continue
					}
					noted[out.tbl] = true
					sp.tbls[out.tbl].Notes = append(sp.tbls[out.tbl].Notes,
						fmt.Sprintf("row x=%g (%s): all %d replications failed; no point plotted",
							r.x, r.cfg.Protocol, o.Seeds))
				}
				continue
			}
			for _, out := range r.outs {
				t := &sp.tbls[out.tbl]
				if out.timeline {
					pts := timelinePoints(good, r.cfg.Duration)
					for pi := range pts {
						pts[pi].NOK, pts[pi].NTotal = nok, o.Seeds
					}
					t.Series[out.series] = append(t.Series[out.series], pts...)
					continue
				}
				y, ci := reduce(good, out.pick)
				t.Series[out.series] = append(t.Series[out.series],
					Point{X: r.x, Y: y, CI: ci, NOK: nok, NTotal: o.Seeds})
			}
		}
	}

	var tables []Table
	for _, sp := range specs {
		for ti := range sp.tbls {
			for name := range sp.tbls[ti].Series {
				sortPoints(sp.tbls[ti].Series[name])
			}
			tables = append(tables, sp.tbls[ti])
		}
	}
	return tables
}
