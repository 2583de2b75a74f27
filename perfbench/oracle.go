package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// The oracle is the benchmark's own brute-force evaluator. It shares no
// code with the program: a hash-indexed backtracking join over the
// benchmark's copies of the relations, under the program's bag
// semantics (one answer per combination of witness rows, so duplicate
// rows multiply answers).

// agg is one ranking function: combine folds the per-atom weights of a
// witness, less orders answers best first.
type agg struct {
	name     string
	identity float64
	combine  func(a, b float64) float64
	less     func(a, b float64) bool
}

var aggs = map[string]agg{
	"sum":      {"sum", 0, func(a, b float64) float64 { return a + b }, func(a, b float64) bool { return a < b }},
	"sum-desc": {"sum-desc", 0, func(a, b float64) float64 { return a + b }, func(a, b float64) bool { return a > b }},
	"max":      {"max", math.Inf(-1), math.Max, func(a, b float64) bool { return a < b }},
	"min-desc": {"min-desc", math.Inf(1), math.Min, func(a, b float64) bool { return a > b }},
	"product":  {"product", 1, func(a, b float64) float64 { return a * b }, func(a, b float64) bool { return a < b }},
}

// sameWeight compares weights that may differ only by the rounding of
// a different combination order.
func sameWeight(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// oracle evaluates one conjunctive query over binary relations.
type oracle struct {
	vars  []string       // query variables, in first-appearance order
	pos   map[string]int // variable -> index in vars
	atoms []oAtom
}

type oAtom struct {
	vars [2]int // variable indices
	rel  *edgeSet
	// byRow maps a full row to the weights of its duplicates.
	byRow map[[2]int64][]float64
	// byFirst / bySecond index the rows by one column.
	byFirst, bySecond map[int64][]int
}

// newOracle indexes the query. rels maps a relation name to its rows.
func newOracle(s shape, rels map[string]*edgeSet) (*oracle, error) {
	o := &oracle{pos: map[string]int{}}
	idx := map[string]*oAtom{}
	for _, a := range s.atoms {
		if len(a.vars) != 2 {
			return nil, fmt.Errorf("oracle: atom %s has arity %d, want 2", a.rel, len(a.vars))
		}
		e, ok := rels[a.rel]
		if !ok {
			return nil, fmt.Errorf("oracle: unknown relation %s", a.rel)
		}
		var at oAtom
		for j, v := range a.vars {
			if _, ok := o.pos[v]; !ok {
				o.pos[v] = len(o.vars)
				o.vars = append(o.vars, v)
			}
			at.vars[j] = o.pos[v]
		}
		// Atoms over the same relation share one index.
		if shared, ok := idx[a.rel]; ok {
			at.rel, at.byRow, at.byFirst, at.bySecond = shared.rel, shared.byRow, shared.byFirst, shared.bySecond
		} else {
			at.rel = e
			at.byRow = map[[2]int64][]float64{}
			at.byFirst = map[int64][]int{}
			at.bySecond = map[int64][]int{}
			for i, r := range e.rows {
				at.byRow[r] = append(at.byRow[r], e.weights[i])
				at.byFirst[r[0]] = append(at.byFirst[r[0]], i)
				at.bySecond[r[1]] = append(at.bySecond[r[1]], i)
			}
			idx[a.rel] = &at
		}
		o.atoms = append(o.atoms, at)
	}
	o.planOrder()
	return o, nil
}

// planOrder orders the atoms for backtracking: each next atom is one
// with the most variables already bound (a fully bound atom is a
// lookup, a half-bound one an index scan), ties going to the smaller
// relation, then to the declared order.
func (o *oracle) planOrder() {
	bound := make([]bool, len(o.vars))
	rest := o.atoms
	var order []oAtom
	for len(rest) > 0 {
		best, bestScore := 0, -1
		for i, a := range rest {
			score := 0
			for _, v := range a.vars {
				if bound[v] {
					score++
				}
			}
			if score > bestScore || score == bestScore && len(a.rel.rows) < len(rest[best].rel.rows) {
				best, bestScore = i, score
			}
		}
		a := rest[best]
		bound[a.vars[0]], bound[a.vars[1]] = true, true
		order = append(order, a)
		rest = append(append([]oAtom(nil), rest[:best]...), rest[best+1:]...)
	}
	o.atoms = order
}

// each calls fn once per answer (bag semantics) with the binding of
// o.vars and the witness weights in atom order. fn must not retain its
// arguments.
func (o *oracle) each(fn func(binding []int64, ws []float64)) {
	binding := make([]int64, len(o.vars))
	bound := make([]bool, len(o.vars))
	ws := make([]float64, len(o.atoms))
	var rec func(i int)
	rec = func(i int) {
		if i == len(o.atoms) {
			fn(binding, ws)
			return
		}
		a := &o.atoms[i]
		x, y := a.vars[0], a.vars[1]
		try := func(row int) {
			r := a.rel.rows[row]
			if x == y && r[0] != r[1] {
				return
			}
			if bound[x] && binding[x] != r[0] || bound[y] && binding[y] != r[1] {
				return
			}
			setX := !bound[x]
			if setX {
				binding[x], bound[x] = r[0], true
			}
			setY := !bound[y]
			if setY {
				binding[y], bound[y] = r[1], true
			}
			ws[i] = a.rel.weights[row]
			rec(i + 1)
			if setX {
				bound[x] = false
			}
			if setY {
				bound[y] = false
			}
		}
		switch {
		case bound[x] && bound[y]:
			for _, w := range a.byRow[[2]int64{binding[x], binding[y]}] {
				ws[i] = w
				rec(i + 1)
			}
		case bound[x]:
			for _, row := range a.byFirst[binding[x]] {
				try(row)
			}
		case bound[y]:
			for _, row := range a.bySecond[binding[y]] {
				try(row)
			}
		default:
			for row := range a.rel.rows {
				try(row)
			}
		}
	}
	rec(0)
}

// count returns the number of answers under bag semantics.
func (o *oracle) count() int {
	n := 0
	o.each(func([]int64, []float64) { n++ })
	return n
}

// topWeights returns the number of answers and, for each named ranking
// function, the weights of its best k answers in ranking order (all
// answers when there are fewer).
func (o *oracle) topWeights(k int, names []string) (int, map[string][]float64) {
	all := make([][]float64, len(names))
	n := 0
	o.each(func(_ []int64, ws []float64) {
		n++
		for i, name := range names {
			a := aggs[name]
			w := a.identity
			for _, x := range ws {
				w = a.combine(w, x)
			}
			all[i] = append(all[i], w)
		}
	})
	out := map[string][]float64{}
	for i, name := range names {
		xs := all[i]
		sort.Float64s(xs)
		if aggs[name].less(1, 0) { // a descending ranking
			slices.Reverse(xs)
		}
		out[name] = slices.Clone(xs[:min(k, len(xs))])
	}
	return n, out
}

// schema maps the program's output columns to the oracle's variables.
func (o *oracle) schema(outVars []string) ([]int, error) {
	if len(outVars) != len(o.vars) {
		return nil, fmt.Errorf("output schema %v does not bind the %d query variables %v", outVars, len(o.vars), o.vars)
	}
	perm := make([]int, len(outVars))
	seen := make([]bool, len(o.vars))
	for i, v := range outVars {
		p, ok := o.pos[v]
		if !ok || seen[p] {
			return nil, fmt.Errorf("output schema %v does not match query variables %v", outVars, o.vars)
		}
		perm[i], seen[p] = p, true
	}
	return perm, nil
}

// maxVars bounds the variables of the benchmark's queries, so that a
// membership check needs no allocation.
const maxVars = 8

// member reports whether tuple (in the column order perm describes) is
// an answer, and whether w is the aggregate weight of one of its
// witnesses under a. It allocates nothing.
func (o *oracle) member(perm []int, tuple []int64, a agg, w float64) (answer, weightOK bool) {
	if len(tuple) != len(perm) || len(perm) > maxVars {
		return false, false
	}
	var binding [maxVars]int64
	for i, p := range perm {
		binding[p] = tuple[i]
	}
	var dups [2 * maxVars][]float64
	if len(o.atoms) > len(dups) {
		return false, false
	}
	for i, at := range o.atoms {
		dups[i] = at.byRow[[2]int64{binding[at.vars[0]], binding[at.vars[1]]}]
		if len(dups[i]) == 0 {
			return false, false
		}
	}
	return true, someWitness(dups[:len(o.atoms)], a, a.identity, w)
}

// someWitness reports whether choosing one weight from each of dups
// can aggregate, from acc, to w.
func someWitness(dups [][]float64, a agg, acc, w float64) bool {
	if len(dups) == 0 {
		return sameWeight(acc, w)
	}
	for _, d := range dups[0] {
		if someWitness(dups[1:], a, a.combine(acc, d), w) {
			return true
		}
	}
	return false
}
