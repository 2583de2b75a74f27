package main

import (
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/internal/workload"
)

func edges(rows [][2]int64, weights ...float64) *edgeSet {
	return &edgeSet{rows: rows, weights: weights}
}

// A 3-edge directed triangle 0→1→2→0 has three answers, its rotations.
func TestOracleTriangle(t *testing.T) {
	e := edges([][2]int64{{0, 1}, {1, 2}, {2, 0}}, 1, 2, 4)
	o, err := newOracle(edgeShapes[1], map[string]*edgeSet{"E": e})
	if err != nil {
		t.Fatal(err)
	}
	if n := o.count(); n != 3 {
		t.Fatalf("count = %d, want 3", n)
	}
	n, top := o.topWeights(10, aggNames)
	if n != 3 {
		t.Fatalf("topWeights count = %d, want 3", n)
	}
	want := map[string][]float64{
		"sum": {7, 7, 7}, "sum-desc": {7, 7, 7}, "max": {4, 4, 4},
		"min-desc": {1, 1, 1}, "product": {8, 8, 8},
	}
	for name, w := range want {
		if !slices.Equal(top[name], w) {
			t.Errorf("%s: top = %v, want %v", name, top[name], w)
		}
	}
	abc := []string{"a", "b", "c"}
	if err := checkMember(o, abc, "sum", answer{[]int64{1, 2, 0}, 7}); err != nil {
		t.Fatal(err)
	}
	if err := checkMember(o, abc, "sum", answer{[]int64{1, 2, 0}, 6}); err == nil {
		t.Fatal("(1,2,0) weight 6 passed")
	}
	if err := checkMember(o, abc, "sum", answer{[]int64{0, 2, 1}, 7}); err == nil {
		t.Fatal("(0,2,1) is not a triangle, but passed")
	}
}

// A path with a duplicated edge: bag semantics give the duplicate's
// answers twice, with each duplicate's weight, and ties stay ties.
func TestOraclePathTiedWeights(t *testing.T) {
	// 0→1 twice (weights 1 and 3), 1→2 and 1→3 (both weight 2).
	e := edges([][2]int64{{0, 1}, {0, 1}, {1, 2}, {1, 3}}, 1, 3, 2, 2)
	path2 := shape{name: "path2", atoms: []atomSpec{{"E", []string{"a", "b"}}, {"E", []string{"b", "c"}}}}
	o, err := newOracle(path2, map[string]*edgeSet{"E": e})
	if err != nil {
		t.Fatal(err)
	}
	if n := o.count(); n != 4 {
		t.Fatalf("count = %d, want 4", n)
	}
	_, top := o.topWeights(3, []string{"sum", "max", "sum-desc"})
	if !slices.Equal(top["sum"], []float64{3, 3, 5}) {
		t.Errorf("sum top-3 = %v, want [3 3 5]", top["sum"])
	}
	if !slices.Equal(top["max"], []float64{2, 2, 3}) {
		t.Errorf("max top-3 = %v, want [2 2 3]", top["max"])
	}
	if !slices.Equal(top["sum-desc"], []float64{5, 5, 3}) {
		t.Errorf("sum-desc top-3 = %v, want [5 5 3]", top["sum-desc"])
	}
	// (0,1,2) has two witnesses, of sum 3 and 5.
	for w, want := range map[float64]bool{3: true, 5: true, 4: false} {
		err := checkMember(o, []string{"a", "b", "c"}, "sum", answer{[]int64{0, 1, 2}, w})
		if (err == nil) != want {
			t.Errorf("(0,1,2) weight %g: err = %v", w, err)
		}
	}
}

// Deletes remove every duplicate of the deleted value pair.
func TestEdgeSetDeleteRemovesDuplicates(t *testing.T) {
	e := edges([][2]int64{{0, 1}, {0, 1}, {1, 2}}, 1, 3, 2)
	e.apply(delta{del: [][2]int64{{0, 1}}, add: [][2]int64{{2, 0}}, weights: []float64{5}})
	if !slices.Equal(e.rows, [][2]int64{{1, 2}, {2, 0}}) || !slices.Equal(e.weights, []float64{2, 5}) {
		t.Fatalf("after delta: %v %v", e.rows, e.weights)
	}
}

// The edge fixture is regular: every vertex has out- and in-degree
// edgeDegree, and the same seed gives the same edges.
func TestEdgesStayRegular(t *testing.T) {
	e := genEdges(5)
	out, in := map[int64]int{}, map[int64]int{}
	for _, r := range e.rows {
		out[r[0]]++
		in[r[1]]++
	}
	for v := int64(0); v < edgeVertices; v++ {
		if out[v] != edgeDegree || in[v] != edgeDegree {
			t.Fatalf("vertex %d: out %d in %d, want %d", v, out[v], in[v], edgeDegree)
		}
	}
	if !slices.Equal(genEdges(5).rows, e.rows) || slices.Equal(genEdges(6).rows, e.rows) {
		t.Fatal("genEdges is not a function of its seed")
	}
	// Swap batches keep it regular.
	rng := workload.NewRand(9)
	for i := 0; i < 50; i++ {
		d := genSwaps(rng, e, 2)
		if len(d.del) != 4 || len(d.add) != 4 {
			t.Fatalf("batch %d: %d deletes, %d appends", i, len(d.del), len(d.add))
		}
		e.apply(d)
	}
	clear(out)
	clear(in)
	for _, r := range e.rows {
		out[r[0]]++
		in[r[1]]++
	}
	for v := int64(0); v < edgeVertices; v++ {
		if out[v] != edgeDegree || in[v] != edgeDegree {
			t.Fatalf("after swaps, vertex %d: out %d in %d", v, out[v], in[v])
		}
	}
}

const triBody = `{"tuple":[0,1,2],"weight":7}
{"tuple":[1,2,0],"weight":7}
{"done":true,"count":2}
`

func triExpect(t *testing.T) expect {
	e := edges([][2]int64{{0, 1}, {1, 2}, {2, 0}}, 1, 2, 4)
	o, err := newOracle(edgeShapes[1], map[string]*edgeSet{"E": e})
	if err != nil {
		t.Fatal(err)
	}
	_, top := o.topWeights(2, []string{"sum"})
	return expect{o: o, outVars: []string{"a", "b", "c"}, agg: "sum", k: 2, total: 3, prefix: top["sum"]}
}

func TestCheckAcceptsCorrectStream(t *testing.T) {
	res, _, err := parseTopK([]byte(triBody))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRanked(triExpect(t), res); err != nil {
		t.Fatal(err)
	}
}

// Deliberately corrupted answers must fail the check: a wrong weight, a
// tuple that is not an answer, a missing line, a broken order, and a
// stream without its trailer.
func TestCheckRejectsCorruptedAnswers(t *testing.T) {
	for name, body := range map[string]string{
		"weight":   strings.Replace(triBody, `"weight":7}`+"\n"+`{"tuple":[1`, `"weight":6}`+"\n"+`{"tuple":[1`, 1),
		"tuple":    strings.Replace(triBody, "[1,2,0]", "[1,0,2]", 1),
		"short":    "{\"tuple\":[0,1,2],\"weight\":7}\n{\"done\":true,\"count\":1}\n",
		"trailer":  strings.Replace(triBody, `{"done":true,"count":2}`, "", 1),
		"miscount": strings.Replace(triBody, `"count":2`, `"count":3`, 1),
	} {
		res, _, err := parseTopK([]byte(body))
		if err == nil {
			err = checkRanked(triExpect(t), res)
		}
		if err == nil {
			t.Errorf("%s: corrupted stream passed the check", name)
		}
	}
	// Order is checked even where no oracle prefix is known.
	e := triExpect(t)
	e.prefix, e.total = nil, -1
	e.agg = "sum-desc"
	res := []answer{{[]int64{0, 1, 2}, 7}, {[]int64{1, 2, 0}, 8}}
	if err := checkRanked(e, res); err == nil {
		t.Error("out-of-order weights passed the check")
	}
	// So is the length: k+1 correct lines are too many.
	long := strings.Replace(triBody, `{"done":true,"count":2}`, "{\"tuple\":[2,0,1],\"weight\":7}\n{\"done\":true,\"count\":3}", 1)
	res, _, err := parseTopK([]byte(long))
	if err != nil {
		t.Fatal(err)
	}
	e = triExpect(t)
	e.prefix, e.total = nil, -1
	if err := checkRanked(e, res); err == nil {
		t.Error("k+1 results passed the check")
	}
}

// corruptWeight rewrites the first result weight of every /topk
// response.
type corruptWeight struct{ h http.Handler }

func (c corruptWeight) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &respWriter{hdr: w.Header()}
	c.h.ServeHTTP(rec, r)
	body := rec.buf.Bytes()
	if strings.HasSuffix(r.URL.Path, "/topk") {
		body = []byte(strings.Replace(string(body), `"weight":`, `"weight":1`, 1))
	}
	w.WriteHeader(rec.code)
	w.Write(body)
}

// A corrupted answer from the program ends the run with an error; it is
// never counted as a failed call.
func TestCorruptedAnswerFailsRun(t *testing.T) {
	w := &serveWL{seed: 1, t: &tally{}}
	defer w.close()
	if err := w.prepare(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := w.setup(); err != nil {
		t.Fatal(err)
	}
	w.mw = func(h http.Handler) http.Handler { return corruptWeight{h} }
	_, err := w.phase(0.001, nil)
	if err == nil || !strings.Contains(err.Error(), "wrong answer") {
		t.Fatalf("phase error = %v, want a wrong-answer error", err)
	}
	if _, failed := w.t.totals(); failed != 0 {
		t.Fatalf("%d calls counted as failed", failed)
	}
}
