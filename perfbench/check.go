package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

// answer is one ranked result as the program returned it.
type answer struct {
	tuple  []int64
	weight float64
}

// trailer is the last line of a /topk stream.
type trailer struct {
	Done  bool   `json:"done"`
	Count *int   `json:"count"`
	Error string `json:"error"`
}

// parseTopK parses a /topk NDJSON body into its result lines and its
// trailer.
func parseTopK(body []byte) ([]answer, trailer, error) {
	var res []answer
	var tr trailer
	sawTrailer := false
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = nil
		}
		if len(line) == 0 {
			continue
		}
		if sawTrailer {
			return nil, tr, fmt.Errorf("line after trailer: %s", line)
		}
		var l struct {
			Tuple  []json.Number `json:"tuple"`
			Weight *float64      `json:"weight"`
			trailer
		}
		if err := json.Unmarshal(line, &l); err != nil {
			return nil, tr, fmt.Errorf("bad line %q: %v", line, err)
		}
		if l.Tuple != nil {
			if l.Weight == nil {
				return nil, tr, fmt.Errorf("result line without weight: %s", line)
			}
			a := answer{weight: *l.Weight}
			for _, n := range l.Tuple {
				v, err := n.Int64()
				if err != nil {
					return nil, tr, fmt.Errorf("non-integral value in %s", line)
				}
				a.tuple = append(a.tuple, v)
			}
			res = append(res, a)
			continue
		}
		tr, sawTrailer = l.trailer, true
	}
	if !sawTrailer {
		return nil, tr, fmt.Errorf("stream has no trailer")
	}
	if tr.Error == "" && (!tr.Done || tr.Count == nil || *tr.Count != len(res)) {
		return nil, tr, fmt.Errorf("trailer %+v does not close %d results", tr, len(res))
	}
	return res, tr, nil
}

// expect describes what a ranked answer list must satisfy.
type expect struct {
	o       *oracle
	outVars []string // the program's output schema
	agg     string
	k       int
	// total is the answer count when known, else -1; a list shorter
	// than k with an unknown total is checked against o.count().
	total int
	// prefix holds the oracle's best weights when known (nil
	// otherwise); the answers' weights must equal its first entries.
	prefix []float64
}

// checkRanked verifies one ranked list: its length, its order, that
// every tuple is an answer of the current data with the weight of one
// of its witnesses, and, where the oracle's prefix is known, the
// weights themselves. Any failure is a wrong answer.
func checkRanked(e expect, res []answer) error {
	if len(res) > e.k {
		return fmt.Errorf("%s: %d results, want at most k=%d", e.agg, len(res), e.k)
	}
	total := e.total
	if total < 0 && len(res) < e.k {
		total = e.o.count()
	}
	if total >= 0 && len(res) != min(e.k, total) {
		return fmt.Errorf("%s: %d results, want min(k=%d, answers=%d)", e.agg, len(res), e.k, total)
	}
	a := aggs[e.agg]
	perm, err := e.o.schema(e.outVars)
	if err != nil {
		return err
	}
	for i, r := range res {
		if i > 0 && a.less(r.weight, res[i-1].weight) && !sameWeight(r.weight, res[i-1].weight) {
			return fmt.Errorf("%s: result %d weight %g ranks before result %d weight %g", e.agg, i, r.weight, i-1, res[i-1].weight)
		}
		if e.prefix != nil && (i >= len(e.prefix) || !sameWeight(r.weight, e.prefix[i])) {
			want := "nothing"
			if i < len(e.prefix) {
				want = strconv.FormatFloat(e.prefix[i], 'g', -1, 64)
			}
			return fmt.Errorf("%s: result %d weight %g, oracle has %s", e.agg, i, r.weight, want)
		}
		if isAnswer, weightOK := e.o.member(perm, r.tuple, a, r.weight); !isAnswer {
			return fmt.Errorf("%s: result %d: tuple %v is not an answer", e.agg, i, r.tuple)
		} else if !weightOK {
			return fmt.Errorf("%s: result %d: tuple %v: weight %g is the aggregate of none of its witnesses", e.agg, i, r.tuple, r.weight)
		}
	}
	return nil
}

// checkMember verifies that r is an answer of the oracle's data and that
// its weight is the aggregate of one of its witnesses.
func checkMember(o *oracle, outVars []string, aggName string, r answer) error {
	perm, err := o.schema(outVars)
	if err != nil {
		return err
	}
	isAnswer, weightOK := o.member(perm, r.tuple, aggs[aggName], r.weight)
	switch {
	case !isAnswer:
		return fmt.Errorf("tuple %v is not an answer", r.tuple)
	case !weightOK:
		return fmt.Errorf("tuple %v: weight %g is the %s of none of its witnesses", r.tuple, r.weight, aggName)
	}
	return nil
}
