package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/workload"
)

// fixtureVersion names the make-up of every generated input. Change it
// whenever a generator, a size or a query shape below changes: results
// under a new version start a new series and are not comparable with
// the old one.
const fixtureVersion = "perfbench-fixture-v1"

// Edge-graph fixture: E is the union of edgeDegree random permutations
// of [0, edgeVertices), so every vertex has out-degree and in-degree
// exactly edgeDegree. Path counts are therefore the same for every
// seed (path4 has edgeVertices·edgeDegree⁴ answers) and only the cycle
// counts vary, which keeps prepare costs steady from seed to seed.
const (
	edgeVertices = 250
	edgeDegree   = 8
	edgeWeights  = 100 // integral weights in [1, edgeWeights]: sums and products stay exact
)

// Pinned chorded 5-cycle fixture (workload.SkewedChordedCycle). It does
// not depend on --seed: its sample calls fail on every run, and that
// failure must be the same share of the operations in every run.
const (
	chordedN      = 2000
	chordedDomain = 200
	chordedFanout = 5
	chordedSkew   = 1.1
	chordedSeed   = 42
)

// aggNames are the server's ?agg= names of the five ranking functions,
// in the order every per-aggregate loop visits them.
var aggNames = []string{"sum", "sum-desc", "max", "min-desc", "product"}

// shape is one query: an atom list over named relations.
type shape struct {
	name  string
	atoms []atomSpec
}

type atomSpec struct {
	rel  string
	vars []string
}

// edgeShapes are the five queries bound to the edge dataset E, in the
// order the serving workloads register and read them.
var edgeShapes = []shape{
	edgeShape("path4", "a b", "b c", "c d", "d e"),
	edgeShape("tri", "a b", "b c", "c a"),
	edgeShape("c4", "a b", "b c", "c d", "d a"),
	edgeShape("c5", "a b", "b c", "c d", "d e", "e a"),
	edgeShape("bowtie", "a b", "b c", "c a", "a d", "d e", "e a"),
}

func edgeShape(name string, atoms ...string) shape {
	s := shape{name: name}
	for _, a := range atoms {
		s.atoms = append(s.atoms, atomSpec{rel: "E", vars: strings.Fields(a)})
	}
	return s
}

// chordedShape is R1(A,B) R2(B,C) R3(C,D) R4(D,E) R5(E,A) R6(B,E).
var chordedShape = shape{name: "chorded5", atoms: []atomSpec{
	{"R1", []string{"A", "B"}}, {"R2", []string{"B", "C"}}, {"R3", []string{"C", "D"}},
	{"R4", []string{"D", "E"}}, {"R5", []string{"E", "A"}}, {"R6", []string{"B", "E"}},
}}

// edgeSet is the benchmark's own copy of a binary relation, kept in
// step with every change it sends to the program.
type edgeSet struct {
	rows    [][2]int64
	weights []float64
}

func (e *edgeSet) clone() *edgeSet {
	return &edgeSet{
		rows:    append([][2]int64(nil), e.rows...),
		weights: append([]float64(nil), e.weights...),
	}
}

// genEdges builds the seeded edge fixture described at edgeVertices.
func genEdges(seed uint64) *edgeSet {
	rng := workload.NewRand(seed*0x9e3779b97f4a7c15 + 1)
	e := &edgeSet{}
	perm := make([]int64, edgeVertices)
	for d := 0; d < edgeDegree; d++ {
		for i := range perm {
			perm[i] = int64(i)
		}
		for i := len(perm) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		for v := range perm {
			e.rows = append(e.rows, [2]int64{int64(v), perm[v]})
			e.weights = append(e.weights, float64(1+rng.Intn(edgeWeights)))
		}
	}
	return e
}

// delta is one append/delete batch against E. Deletes apply first and
// remove every duplicate of the deleted value pair.
type delta struct {
	del     [][2]int64
	add     [][2]int64
	weights []float64
}

// genSwaps builds a batch of degree-preserving edge swaps: each swap
// deletes two edges (a,b) and (c,d) and appends (a,d) and (c,b). Only
// edges whose value pair occurs once are deleted (a delete removes
// every duplicate), so every vertex keeps out- and in-degree
// edgeDegree, the path counts stay fixed, and however many batches a
// run applies, E stays a random regular graph of the same size.
func genSwaps(rng *workload.Rand, e *edgeSet, swaps int) delta {
	count := make(map[[2]int64]int, len(e.rows))
	for _, r := range e.rows {
		count[r]++
	}
	var d delta
	taken := map[[2]int64]bool{}
	pick := func() [2]int64 {
		for {
			r := e.rows[rng.Intn(len(e.rows))]
			if count[r] == 1 && !taken[r] {
				taken[r] = true
				return r
			}
		}
	}
	for len(d.del) < 2*swaps {
		x, y := pick(), pick()
		if x[0] == y[0] || x[1] == y[1] {
			delete(taken, x)
			delete(taken, y)
			continue
		}
		d.del = append(d.del, x, y)
		d.add = append(d.add, [2]int64{x[0], y[1]}, [2]int64{y[0], x[1]})
		d.weights = append(d.weights, float64(1+rng.Intn(edgeWeights)), float64(1+rng.Intn(edgeWeights)))
	}
	return d
}

// apply mirrors the program's delta semantics on the benchmark's copy.
func (e *edgeSet) apply(d delta) {
	gone := make(map[[2]int64]bool, len(d.del))
	for _, r := range d.del {
		gone[r] = true
	}
	rows, ws := e.rows[:0], e.weights[:0]
	for i, r := range e.rows {
		if !gone[r] {
			rows = append(rows, r)
			ws = append(ws, e.weights[i])
		}
	}
	e.rows = append(rows, d.add...)
	e.weights = append(ws, d.weights...)
}

// chordedFixture returns the pinned chorded 5-cycle relations, in
// chordedShape's atom order.
func chordedFixture() []*edgeSet {
	inst := workload.SkewedChordedCycle(chordedN, chordedDomain, chordedFanout, chordedSkew, workload.UniformWeights(), chordedSeed)
	out := make([]*edgeSet, len(inst.Rels))
	for i, r := range inst.Rels {
		e := &edgeSet{}
		for j, t := range r.Tuples {
			e.rows = append(e.rows, [2]int64{int64(t[0]), int64(t[1])})
			e.weights = append(e.weights, r.Weights[j])
		}
		out[i] = e
	}
	return out
}

// jsonPairs renders rows as a JSON array of two-element arrays.
func jsonPairs(b *strings.Builder, rows [][2]int64) {
	b.WriteByte('[')
	for i, r := range rows {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(b, "[%d,%d]", r[0], r[1])
	}
	b.WriteByte(']')
}

func jsonFloats(b *strings.Builder, xs []float64) {
	b.WriteByte('[')
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(x, 'g', -1, 64))
	}
	b.WriteByte(']')
}

// uploadBody is the JSON dataset upload of an edge set.
func uploadBody(e *edgeSet) string {
	var b strings.Builder
	b.WriteString(`{"attrs":["src","dst"],"tuples":`)
	jsonPairs(&b, e.rows)
	b.WriteString(`,"weights":`)
	jsonFloats(&b, e.weights)
	b.WriteByte('}')
	return b.String()
}

// patchBody is the JSON PATCH body of a delta.
func patchBody(d delta) string {
	var b strings.Builder
	b.WriteString(`{"delete":`)
	jsonPairs(&b, d.del)
	b.WriteString(`,"append":`)
	jsonPairs(&b, d.add)
	b.WriteString(`,"append_weights":`)
	jsonFloats(&b, d.weights)
	b.WriteByte('}')
	return b.String()
}

// queryBody is the JSON registration of an edge shape.
func queryBody(s shape) string {
	var b strings.Builder
	b.WriteString(`{"atoms":[`)
	for i, a := range s.atoms {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"dataset":%q,"vars":["%s"]}`, a.rel, strings.Join(a.vars, `","`))
	}
	b.WriteString(`]}`)
	return b.String()
}

// csvBody renders an edge set the way relation.ReadCSV ingests it.
func csvBody(e *edgeSet) string {
	var b strings.Builder
	b.WriteString("src,dst,weight\n")
	for i, r := range e.rows {
		fmt.Fprintf(&b, "%d,%d,%s\n", r[0], r[1], strconv.FormatFloat(e.weights[i], 'g', -1, 64))
	}
	return b.String()
}
