package main

import (
	"errors"
	"fmt"
	"time"

	"repro"
	"repro/internal/ranking"
	"repro/internal/relation"
)

// libShapes is the library workload's bundle: the five edge shapes and
// the pinned chorded 5-cycle.
var libShapes = append(append([]shape(nil), edgeShapes...), chordedShape)

// drainK is how far the library workload drains a ranked run.
const drainK = 10000

// sampleN is the sample size of one Sample call.
const sampleN = 10

// chordedSampleSeed fixes the chorded5 sample calls' draws: their
// failure (ErrTrialBudget) must not depend on --seed.
const chordedSampleSeed = 7

var facadeAggs = map[string]ranking.Aggregate{
	"sum": repro.SumCost, "sum-desc": repro.SumBenefit, "max": repro.MaxCost,
	"min-desc": repro.MinBenefit, "product": repro.ProductCost,
}

// relationsFor returns the relations a shape's atoms bind.
func relationsFor(seed uint64) map[string]*edgeSet {
	rels := map[string]*edgeSet{"E": genEdges(seed)}
	for i, r := range chordedFixture() {
		rels[chordedShape.atoms[i].rel] = r
	}
	return rels
}

// toRelation converts an edge set into the program's relation type.
func toRelation(name string, e *edgeSet) *relation.Relation {
	r := &relation.Relation{Name: name, Attrs: []string{"src", "dst"}}
	for i, row := range e.rows {
		r.Tuples = append(r.Tuples, relation.Tuple{row[0], row[1]})
		r.Weights = append(r.Weights, e.weights[i])
	}
	return r
}

// facadeQuery builds the library query of a shape; atom i is named
// like the server names it (relation#i).
func facadeQuery(s shape, rels map[string]*relation.Relation) *repro.Query {
	q := repro.NewQuery()
	for i, a := range s.atoms {
		r := rels[a.rel]
		q.Rel(fmt.Sprintf("%s#%d", a.rel, i), a.vars, r.Tuples, r.Weights)
	}
	return q
}

func toAnswers(rs []repro.Result) []answer {
	out := make([]answer, len(rs))
	for i, r := range rs {
		out[i] = answer{tuple: r.Tuple, weight: r.Weight}
	}
	return out
}

// libWL drives the facade alone, on one goroutine.
type libWL struct {
	seed uint64
	t    *tally

	queries map[string]*repro.Query
	oracles map[string]*oracle
	totals  map[string]int
	prefix  map[string]map[string][]float64
	handles map[string]*repro.Prepared // warm under every ranking
	round   uint64
}

func (w *libWL) prepare() error {
	rels := relationsFor(w.seed)
	progRels := map[string]*relation.Relation{}
	for name, e := range rels {
		progRels[name] = toRelation(name, e)
	}
	w.queries, w.oracles = map[string]*repro.Query{}, map[string]*oracle{}
	w.totals, w.prefix = map[string]int{}, map[string]map[string][]float64{}
	for _, s := range libShapes {
		w.queries[s.name] = facadeQuery(s, progRels)
		o, err := newOracle(s, rels)
		if err != nil {
			return err
		}
		w.oracles[s.name] = o
		w.totals[s.name], w.prefix[s.name] = o.topWeights(drainK, aggNames)
	}
	return nil
}

// setup compiles every shape and builds its plan under all five
// ranking functions.
func (w *libWL) setup() (time.Duration, []float64, error) {
	w.handles = nil
	start := time.Now()
	handles := map[string]*repro.Prepared{}
	for _, s := range libShapes {
		p, err := repro.Compile(w.queries[s.name])
		if err != nil {
			return 0, nil, fmt.Errorf("compile %s: %w", s.name, err)
		}
		for _, agg := range aggNames {
			if _, err := p.TopK(1, repro.WithRanking(facadeAggs[agg])); err != nil {
				return 0, nil, fmt.Errorf("warm %s %s: %w", s.name, agg, err)
			}
		}
		handles[s.name] = p
	}
	d := time.Since(start)
	w.handles = handles
	return d, nil, nil
}

func (w *libWL) expectFor(q, agg string, k int, outVars []string) expect {
	return expect{o: w.oracles[q], outVars: outVars, agg: agg, k: k, total: w.totals[q], prefix: w.prefix[q][agg]}
}

// topkReps is how often a round repeats each warm TopK(10) class, so
// that every class has enough samples for its 90th percentile.
const topkReps = 8

// phase runs whole rounds of the fixed sequence: the cold bundle,
// topkReps warm TopK(10) calls and one drain to 10⁴ for every shape
// under every ranking, and one Sample call each on tri and chorded5.
// Every check runs off the round's clock.
func (w *libWL) phase(seconds float64, rec *recorder) (*phaseResult, error) {
	deadline := time.Duration(seconds * float64(time.Second))
	res := &phaseResult{clients: 1}
	start := time.Now()
	for time.Since(start) < deadline {
		res.startRound()
		w.round++
		if err := w.coldBundle(res, rec); err != nil {
			return nil, err
		}
		for rep := 0; rep < topkReps; rep++ {
			for _, s := range libShapes {
				for _, agg := range aggNames {
					if err := w.warmTopK(s.name, agg, res, rec); err != nil {
						return nil, err
					}
				}
			}
		}
		for _, s := range libShapes {
			for _, agg := range aggNames {
				if err := w.drain(s.name, agg, res, rec); err != nil {
					return nil, err
				}
			}
		}
		if err := w.sample("tri", w.seed<<20+w.round, res, rec); err != nil {
			return nil, err
		}
		if err := w.sample("chorded5", chordedSampleSeed, res, rec); err != nil {
			return nil, err
		}
		res.endRound()
	}
	res.elapsed = time.Since(start)
	return res, nil
}

// coldBundle compiles every shape from scratch and takes its first
// result: one cold operation.
func (w *libWL) coldBundle(res *phaseResult, rec *recorder) error {
	sp := rec.op("library.cold")
	firsts := make([]repro.Result, len(libShapes))
	outs := make([][]string, len(libShapes))
	t := time.Now()
	for i, s := range libShapes {
		cs := sp.child("repro.Compile")
		p, err := repro.Compile(w.queries[s.name])
		cs.end()
		if err != nil {
			return fmt.Errorf("compile %s: %w", s.name, err)
		}
		rs := sp.child("repro.Run")
		it, err := p.Run(repro.WithRanking(repro.SumCost))
		rs.end()
		if err != nil {
			return fmt.Errorf("run %s: %w", s.name, err)
		}
		ns := sp.child("core.Next")
		r, more := it.Next()
		ns.end()
		err = it.Err()
		it.Close()
		if err != nil || !more {
			return fmt.Errorf("first result of %s: %v (more=%v)", s.name, err, more)
		}
		firsts[i], outs[i] = r, p.OutAttrs()
	}
	lat := ms(time.Since(t))
	sp.end()
	res.cold = append(res.cold, lat)
	for range libShapes {
		w.t.add("cold", ok)
		res.calls++
	}
	return res.rc.untimed(func() error {
		for i, s := range libShapes {
			if err := checkRanked(w.expectFor(s.name, "sum", 1, outs[i]), toAnswers(firsts[i:i+1])); err != nil {
				return fmt.Errorf("wrong first answer from cold %s: %w", s.name, err)
			}
		}
		return nil
	})
}

func (w *libWL) warmTopK(q, agg string, res *phaseResult, rec *recorder) error {
	sp := rec.op("library.topk")
	defer sp.end()
	p := w.handles[q]
	cs := sp.child("repro.TopK")
	t := time.Now()
	rs, err := p.TopK(10, repro.WithRanking(facadeAggs[agg]))
	lat := ms(time.Since(t))
	cs.end()
	if err != nil {
		return fmt.Errorf("TopK %s %s: %w", q, agg, err)
	}
	w.t.add("topk", ok)
	res.calls++
	res.topk.add(q+"/"+agg, lat)
	return res.rc.untimed(func() error {
		ks := sp.child("check")
		defer ks.end()
		if err := checkRanked(w.expectFor(q, agg, 10, p.OutAttrs()), toAnswers(rs)); err != nil {
			return fmt.Errorf("wrong answer from TopK %s: %w", q, err)
		}
		return nil
	})
}

func (w *libWL) drain(q, agg string, res *phaseResult, rec *recorder) error {
	sp := rec.op("library.drain")
	defer sp.end()
	p := w.handles[q]
	out := make([]repro.Result, 0, min(drainK, w.totals[q]))
	t := time.Now()
	rs := sp.child("repro.Run")
	it, err := p.Run(repro.WithRanking(facadeAggs[agg]), repro.WithK(drainK))
	rs.end()
	if err != nil {
		return fmt.Errorf("run %s %s: %w", q, agg, err)
	}
	ns := sp.child("core.drain")
	for {
		r, more := it.Next()
		if !more {
			break
		}
		out = append(out, r)
	}
	ns.end()
	err = it.Err()
	it.Close()
	lat := ms(time.Since(t))
	if err != nil {
		return fmt.Errorf("drain %s %s: %w", q, agg, err)
	}
	w.t.add("scan", ok)
	res.calls++
	res.scan.add(q+"/"+agg, lat)
	return res.rc.untimed(func() error {
		ks := sp.child("check")
		defer ks.end()
		if err := checkRanked(w.expectFor(q, agg, drainK, p.OutAttrs()), toAnswers(out)); err != nil {
			return fmt.Errorf("wrong answer from drain %s: %w", q, err)
		}
		return nil
	})
}

// sample draws sampleN samples; every sample must be an answer whose
// weight is the sum of one of its witnesses. An exhausted trial budget
// is a failed call.
func (w *libWL) sample(q string, seed uint64, res *phaseResult, rec *recorder) error {
	sp := rec.op("library.sample")
	defer sp.end()
	p := w.handles[q]
	ss := sp.child("repro.Sample")
	t := time.Now()
	rs, err := p.Sample(sampleN, repro.WithSeed(seed))
	d := time.Since(t)
	ss.end()
	o := ok
	switch {
	case errors.Is(err, repro.ErrTrialBudget):
		o = budgetExhausted
	case err != nil:
		return fmt.Errorf("sample %s: %w", q, err)
	}
	w.t.add("sample", o)
	res.calls++
	res.samples += len(rs)
	res.sampleTime += d
	return res.rc.untimed(func() error {
		ks := sp.child("check")
		defer ks.end()
		if o == ok && len(rs) != sampleN {
			return fmt.Errorf("sample %s: %d samples, want %d", q, len(rs), sampleN)
		}
		for i, r := range rs {
			if err := checkMember(w.oracles[q], p.OutAttrs(), "sum", answer{tuple: r.Tuple, weight: r.Weight}); err != nil {
				return fmt.Errorf("sample %d of %s: %w", i, q, err)
			}
		}
		return nil
	})
}

func (w *libWL) finish() error { return nil }

func (w *libWL) hitRatio() (float64, bool, error) { return 0, false, nil }

func (w *libWL) close() { w.handles = nil }
