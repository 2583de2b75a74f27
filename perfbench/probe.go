package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/dp"
	"repro/internal/hypergraph"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/wcoj"
	"repro/internal/workload"
	"repro/internal/yannakakis"
)

// The layer probes time calls into each internal package's exported
// functions from outside the program, on the run's own inputs (the
// seeded edge set and the pinned chorded 5-cycle). Every traced run
// makes the same probes, so every workload reports every per-layer
// metric.

type prober struct {
	rec  *recorder
	m    map[string]metric
	rels map[string]*edgeSet
	prog map[string]*relation.Relation
	// warm handles (built under sum) per shape
	handles map[string]*repro.Prepared
	coldTTF map[string]float64 // compile + first result, ms
}

func probeLayers(seed uint64, rec *recorder, m map[string]metric) error {
	p := &prober{rec: rec, m: m, rels: relationsFor(seed), prog: map[string]*relation.Relation{},
		handles: map[string]*repro.Prepared{}, coldTTF: map[string]float64{}}
	for name, e := range p.rels {
		p.prog[name] = toRelation(name, e)
	}
	for _, step := range []func() error{
		p.ingest, p.compile, p.acyclic, p.materialize, p.enumerate, p.sampling,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return p.serving(seed)
}

func (p *prober) set(name string, v float64, unit string) { p.m[name] = metric{v, unit} }

// atomsOf returns a shape's hypergraph edges (named like the facade
// and the server name them) and the relations aligned with them.
func (p *prober) atomsOf(s shape) ([]hypergraph.Edge, []*relation.Relation) {
	var edges []hypergraph.Edge
	var rels []*relation.Relation
	for i, a := range s.atoms {
		edges = append(edges, hypergraph.E(fmt.Sprintf("%s#%d", a.rel, i), a.vars...))
		rels = append(rels, p.prog[a.rel])
	}
	return edges, rels
}

// ingest: relation.ReadCSV and catalog.Collect on E.
func (p *prober) ingest() error {
	sp := p.rec.op("probe.ingest")
	defer sp.end()
	body := csvBody(p.rels["E"])
	var err error
	p.set("relation.ingest_ms", timeIt(20, func() {
		cs := sp.child("relation.ReadCSV")
		_, err = relation.ReadCSV(strings.NewReader(body), "E", true, relation.NewDictionary())
		cs.end()
	}), "ms")
	if err != nil {
		return err
	}
	p.set("catalog.collect_ms", timeIt(20, func() {
		cs := sp.child("catalog.Collect")
		catalog.Collect(p.prog["E"])
		cs.end()
	}), "ms")
	return nil
}

// compile: per shape, the hypergraph search the planner runs (for the
// searchedShapes), the facade's Compile, and the first result of a
// fresh handle.
func (p *prober) compile() error {
	for _, s := range libShapes {
		sp := p.rec.op("probe.compile." + s.name)
		edges, rels := p.atomsOf(s)
		cm := catalog.NewCostModel(edges, rels, nil)
		q := facadeQuery(s, p.prog)
		searched := slices.Contains(searchedShapes, s.name)
		var dec, comp, first []float64
		for rep := 0; rep < 3; rep++ {
			if searched {
				h := hypergraph.New(edges...)
				hs := sp.child("hypergraph.Decompose")
				t := time.Now()
				if h.IsAcyclic() {
					if _, ok := h.BuildJoinTree(); !ok {
						return fmt.Errorf("%s: no join tree", s.name)
					}
				} else if _, err := h.DecomposeCosted(cm); err != nil {
					return fmt.Errorf("%s: %w", s.name, err)
				}
				dec = append(dec, ms(time.Since(t)))
				hs.end()
			}

			cs := sp.child("repro.Compile")
			t := time.Now()
			h2, err := repro.Compile(q)
			comp = append(comp, ms(time.Since(t)))
			cs.end()
			if err != nil {
				return fmt.Errorf("compile %s: %w", s.name, err)
			}
			rs := sp.child("repro.Run.first")
			t = time.Now()
			it, err := h2.Run(repro.WithRanking(repro.SumCost))
			if err != nil {
				return fmt.Errorf("run %s: %w", s.name, err)
			}
			_, more := it.Next()
			first = append(first, ms(time.Since(t)))
			rs.end()
			err = it.Err()
			it.Close()
			if err != nil || !more {
				return fmt.Errorf("first result of %s: %v", s.name, err)
			}
			p.handles[s.name] = h2
		}
		sp.end()
		if searched {
			p.set("hypergraph.decompose_ms."+s.name, median(dec), "ms")
		}
		p.set("repro.compile_ms."+s.name, median(comp), "ms")
		p.set("repro.first_run_ms."+s.name, median(first), "ms")
		p.coldTTF[s.name] = median(comp) + median(first)
	}
	return nil
}

// acyclic: Yannakakis' full reduction and the T-DP instantiation on
// path4.
func (p *prober) acyclic() error {
	sp := p.rec.op("probe.acyclic")
	defer sp.end()
	edges, rels := p.atomsOf(edgeShapes[0])
	yq, err := yannakakis.NewQuery(hypergraph.New(edges...), rels)
	if err != nil {
		return err
	}
	p.set("yannakakis.full_reduce_ms.path4", timeIt(5, func() {
		cs := sp.child("yannakakis.FullReduce")
		yq.FullReduce()
		cs.end()
	}), "ms")
	plan, err := dp.NewPlan(yq)
	if err != nil {
		return err
	}
	p.set("dp.instantiate_ms.path4", timeIt(5, func() {
		cs := sp.child("dp.Instantiate")
		_, err = plan.Instantiate(repro.SumCost)
		cs.end()
	}), "ms")
	return err
}

// materialize: a Generic-Join of every cyclic shape's full atom set,
// and the bag tuples the program's own plan materialised.
func (p *prober) materialize() error {
	for _, s := range libShapes {
		if s.name == "path4" {
			continue
		}
		sp := p.rec.op("probe.wcoj." + s.name)
		edges, rels := p.atomsOf(s)
		atoms := make([]wcoj.Atom, len(edges))
		for i := range edges {
			atoms[i] = wcoj.Atom{Rel: rels[i], Vars: edges[i].Vars}
		}
		order := wcoj.SuggestOrder(atoms)
		var err error
		p.set("wcoj.materialize_ms."+s.name, timeIt(3, func() {
			cs := sp.child("wcoj.Materialize")
			_, _, err = wcoj.Materialize(atoms, order, repro.SumCost)
			cs.end()
		}), "ms")
		sp.end()
		if err != nil {
			return fmt.Errorf("materialize %s: %w", s.name, err)
		}
		n, ok := bagTuples(p.handles[s.name])
		if !ok {
			return fmt.Errorf("%s: plan reports no sum ranking", s.name)
		}
		p.set("wcoj.tuples."+s.name, float64(n), "count")
	}
	return nil
}

func bagTuples(h *repro.Prepared) (int, bool) {
	for _, r := range h.PlanStats().Rankings {
		if r.Ranking == repro.SumCost.Name() {
			return r.TotalMaterialized, true
		}
	}
	return 0, false
}

// enumerate: warm time to first result per shape, per-result delay at
// k = 10…10⁴ on path4 and c5, and how cold TTF relates to
// preprocessing work and to output size.
func (p *prober) enumerate() error {
	for _, s := range libShapes {
		sp := p.rec.op("probe.ttf." + s.name)
		h := p.handles[s.name]
		var ttf []float64
		for rep := 0; rep < 50; rep++ {
			cs := sp.child("repro.Run.first")
			t := time.Now()
			it, err := h.Run(repro.WithRanking(repro.SumCost))
			if err != nil {
				return err
			}
			it.Next()
			ttf = append(ttf, us(time.Since(t)))
			it.Close()
			cs.end()
		}
		sp.end()
		p.set("core.ttf_us."+s.name, median(ttf), "us")
	}
	// marks are the result indices timestamped: k/2 and k for every k.
	var marks []int
	for _, k := range delayKs {
		marks = append(marks, k/2, k)
	}
	for _, name := range delayShapes {
		sp := p.rec.op("probe.delay." + name)
		stamps := map[int][]float64{}
		for rep := 0; rep < 5; rep++ {
			cs := sp.child("core.drain")
			it, err := p.handles[name].Run(repro.WithRanking(repro.SumCost), repro.WithK(drainK))
			if err != nil {
				return err
			}
			t := time.Now()
			at := map[int]time.Duration{}
			next := 0 // index into marks
			for i := 1; ; i++ {
				if _, more := it.Next(); !more {
					break
				}
				if next < len(marks) && i == marks[next] {
					at[i] = time.Since(t)
					next++
				}
			}
			err = it.Err()
			it.Close()
			cs.end()
			if err != nil {
				return err
			}
			for _, k := range delayKs {
				lo, hi := at[k/2], at[k]
				if hi == 0 {
					return fmt.Errorf("%s has fewer than %d answers", name, k)
				}
				stamps[k] = append(stamps[k], us(hi-lo)/float64(k-k/2))
			}
		}
		sp.end()
		var lnk, delay []float64
		for _, k := range delayKs {
			d := median(stamps[k])
			p.set(delayName(name, k), d, "us")
			lnk, delay = append(lnk, math.Log(float64(k))), append(delay, d)
		}
		p.set("core.delay_log_slope."+name, slope(lnk, delay), "us")
	}
	// Cold TTF against preprocessing work (input plus materialised bag
	// tuples) and against the answer count, as log-log slopes across the
	// six shapes.
	var lttf, lprep, lout []float64
	for _, s := range libShapes {
		o, err := newOracle(s, p.rels)
		if err != nil {
			return err
		}
		bag, _ := bagTuples(p.handles[s.name])
		in := 0
		for _, a := range s.atoms {
			in += len(p.rels[a.rel].rows)
		}
		lttf = append(lttf, math.Log(p.coldTTF[s.name]))
		lprep = append(lprep, math.Log(float64(in+bag)))
		lout = append(lout, math.Log(float64(o.count())))
	}
	p.set("core.ttf_prep_slope", slope(lprep, lttf), "ratio")
	p.set("core.ttf_output_slope", slope(lout, lttf), "ratio")
	return nil
}

// sampling: trial throughput of the rejection walk (chorded5, whose
// calls run to the trial budget) and the acceptance ratio per shape.
func (p *prober) sampling() error {
	var chordTrials int64
	var chordTime time.Duration
	for _, name := range []string{"tri", "chorded5"} {
		sp := p.rec.op("probe.sample." + name)
		h := p.handles[name]
		h.Sample(1, repro.WithSeed(1)) // builds the epoch's sampler
		before := h.PlanStats()
		for rep := 0; rep < 3; rep++ {
			cs := sp.child("repro.Sample")
			t := time.Now()
			_, err := h.Sample(sampleN, repro.WithSeed(uint64(100+rep)))
			d := time.Since(t)
			cs.end()
			if err != nil && name != "chorded5" {
				return fmt.Errorf("sample %s: %w", name, err)
			}
			if name == "chorded5" {
				chordTime += d
			}
		}
		sp.end()
		after := h.PlanStats()
		trials := after.SampleTrials - before.SampleTrials
		accepts := after.SampleAccepts - before.SampleAccepts
		if trials == 0 {
			return fmt.Errorf("sample %s: no trials counted", name)
		}
		if name == "chorded5" {
			chordTrials = trials
		}
		p.set("sample.accept_ratio."+name, float64(accepts)/float64(trials), "ratio")
	}
	p.set("sample.trials_per_s", float64(chordTrials)/chordTime.Seconds(), "1/s")
	return nil
}

// serving: the server's fixed per-request cost, allocations, encoding
// cost per line, the observability middleware's cost, and PATCH
// propagation against the facade's ApplyDelta on equally warm handles.
func (p *prober) serving(seed uint64) error {
	on, err := p.probeServer(server.Config{}, edgeShapes)
	if err != nil {
		return err
	}
	defer on.Close()
	off, err := p.probeServer(server.Config{DisableObservability: true}, edgeShapes)
	if err != nil {
		return err
	}
	defer off.Close()
	con, coff := newClient(on.Handler()), newClient(off.Handler())
	get := func(q string, k int) *http.Request {
		r, _ := http.NewRequest("GET", fmt.Sprintf("/v1/query/%s/topk?k=%d&agg=sum", q, k), nil)
		return r
	}
	timeHandler := func(c *client, req *http.Request, sp *span) (float64, error) {
		cs := sp.child("server.topk")
		t := time.Now()
		c.serve(req)
		d := us(time.Since(t))
		cs.end()
		if c.w.code != http.StatusOK {
			return 0, fmt.Errorf("probe request %s: status %d", req.URL, c.w.code)
		}
		return d, nil
	}
	timeRun := func(h *repro.Prepared, k int, sp *span) (float64, error) {
		cs := sp.child("repro.Run.drain")
		t := time.Now()
		it, err := h.Run(repro.WithRanking(repro.SumCost), repro.WithK(k))
		if err != nil {
			return 0, err
		}
		for {
			if _, more := it.Next(); !more {
				break
			}
		}
		d := us(time.Since(t))
		err = it.Err()
		it.Close()
		cs.end()
		return d, err
	}
	// handlerMinusRun is the p50 of handler calls minus the p50 of
	// Run+drain for the same query and k, measured in interleaved rounds.
	handlerMinusRun := func(q string, k, rounds, per int, sp *span) (float64, error) {
		req := get(q, k)
		var hs, rs []float64
		for r := 0; r < rounds; r++ {
			for i := 0; i < per; i++ {
				d, err := timeHandler(con, req, sp)
				if err != nil {
					return 0, err
				}
				hs = append(hs, d)
			}
			for i := 0; i < per; i++ {
				d, err := timeRun(p.handles[q], k, sp)
				if err != nil {
					return 0, err
				}
				rs = append(rs, d)
			}
		}
		return median(hs) - median(rs), nil
	}

	sp := p.rec.op("probe.server.fixed")
	var fixed []float64
	for _, s := range edgeShapes {
		f, err := handlerMinusRun(s.name, 10, 4, 50, sp)
		if err != nil {
			return err
		}
		fixed = append(fixed, f)
	}
	sp.end()
	p.set("server.topk_fixed_us", median(fixed), "us")

	sp = p.rec.op("probe.server.encode")
	enc, err := handlerMinusRun("path4", scanK, 10, 5, sp)
	sp.end()
	if err != nil {
		return err
	}
	p.set("server.encode_us_per_line", enc/scanK, "us")

	req := get("path4", 10)
	const allocCalls = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocCalls; i++ {
		con.serve(req)
	}
	runtime.ReadMemStats(&after)
	p.set("server.topk_allocs", float64(after.Mallocs-before.Mallocs)/allocCalls, "count")

	sp = p.rec.op("probe.obs")
	var hOn, hOff []float64
	reqOff := get("path4", 10)
	for r := 0; r < 10; r++ {
		for i := 0; i < 100; i++ {
			d, err := timeHandler(con, req, sp)
			if err != nil {
				return err
			}
			hOn = append(hOn, d)
		}
		for i := 0; i < 100; i++ {
			d, err := timeHandler(coff, reqOff, sp)
			if err != nil {
				return err
			}
			hOff = append(hOff, d)
		}
	}
	sp.end()
	p.set("obs.overhead_us", median(hOn)-median(hOff), "us")

	// The PATCH probe's server leaves out c5: its rebuild alone takes a
	// few hundred ms and varies by about a tenth from call to call, which
	// would drown the server's own share of a PATCH.
	var patchShapes []shape
	for _, s := range edgeShapes {
		if s.name != "c5" {
			patchShapes = append(patchShapes, s)
		}
	}
	pat, err := p.probeServer(server.Config{}, patchShapes)
	if err != nil {
		return err
	}
	defer pat.Close()
	if err := p.patching(seed, newClient(pat.Handler()), patchShapes); err != nil {
		return err
	}
	if _, set := p.m["server.plan_cache_hit_ratio"]; !set {
		r, _, err := statsHitRatio(con)
		if err != nil {
			return err
		}
		p.set("server.plan_cache_hit_ratio", r, "ratio")
	}
	return nil
}

// patchBatches is how many batches the PATCH probe sends.
const patchBatches = 5

// probeServer starts a server holding E with the given queries
// registered, and warms each under sum at k=10 and k=1000, checking the
// answers.
func (p *prober) probeServer(cfg server.Config, shapes []shape) (*server.Server, error) {
	srv := server.New(cfg)
	c := newClient(srv.Handler())
	if err := c.mustOK("POST", "/v1/datasets/E", uploadBody(p.rels["E"])); err != nil {
		srv.Close()
		return nil, err
	}
	for _, s := range shapes {
		if err := c.mustOK("POST", "/v1/queries/"+s.name, queryBody(s)); err != nil {
			srv.Close()
			return nil, err
		}
		o, err := newOracle(s, p.rels)
		if err != nil {
			srv.Close()
			return nil, err
		}
		for _, k := range []int{10, scanK} {
			err := c.mustRead(nil, s.name, "sum", k, func(outVars []string) expect {
				return expect{o: o, outVars: outVars, agg: "sum", k: k, total: -1}
			})
			if err != nil {
				srv.Close()
				return nil, fmt.Errorf("probe read: %w", err)
			}
		}
	}
	return srv, nil
}

// patching sends the same batches as PATCHes to the server (which holds
// the served shapes) and as ApplyDelta calls to the warm facade handles
// of every edge shape. The PATCH overhead is the PATCH latency less the
// ApplyDelta time of the served shapes' handles.
func (p *prober) patching(seed uint64, con *client, served []shape) error {
	rng := workload.NewRand(seed ^ 0xde17a)
	edges := p.rels["E"].clone()
	var overhead []float64
	apply := map[string][]float64{}
	rebuilt := map[string][]float64{}
	var reused, rebuiltAll int64
	for batch := 0; batch < patchBatches; batch++ {
		sp := p.rec.op("probe.patch")
		d := genSwaps(rng, edges, 2)
		edges.apply(d)
		body := patchBody(d)
		ps := sp.child("server.patch")
		err := con.mustOK("PATCH", "/v1/datasets/E", body)
		patchMS := ms(con.took)
		ps.end()
		if err != nil {
			return err
		}
		var sum float64
		for _, s := range edgeShapes {
			h := p.handles[s.name]
			var ds []repro.Delta
			for i := range s.atoms {
				rd := repro.Delta{Rel: fmt.Sprintf("E#%d", i), AppendWeights: d.weights}
				for _, r := range d.add {
					rd.Append = append(rd.Append, relation.Tuple{r[0], r[1]})
				}
				for _, r := range d.del {
					rd.Delete = append(rd.Delete, relation.Tuple{r[0], r[1]})
				}
				ds = append(ds, rd)
			}
			st0 := h.PlanStats()
			as := sp.child("repro.ApplyDelta")
			t := time.Now()
			err := h.ApplyDelta(ds)
			a := ms(time.Since(t))
			as.end()
			if err != nil {
				return fmt.Errorf("ApplyDelta %s: %w", s.name, err)
			}
			st1 := h.PlanStats()
			if slices.ContainsFunc(served, func(x shape) bool { return x.name == s.name }) {
				sum += a
			}
			apply[s.name] = append(apply[s.name], a)
			rb := st1.DeltaBagsRebuilt - st0.DeltaBagsRebuilt
			rebuilt[s.name] = append(rebuilt[s.name], float64(rb))
			if s.name != "path4" {
				rebuiltAll += rb
				reused += st1.DeltaBagsReused - st0.DeltaBagsReused
			}
		}
		sp.end()
		overhead = append(overhead, patchMS-sum)
	}
	p.set("server.patch_overhead_ms", median(overhead), "ms")
	for _, s := range edgeShapes {
		p.set("repro.apply_delta_ms."+s.name, median(apply[s.name]), "ms")
	}
	for _, name := range edgeCyclic {
		p.set("decomp.bags_rebuilt."+name, median(rebuilt[name]), "count")
	}
	ratio := 0.0
	if reused+rebuiltAll > 0 {
		ratio = float64(reused) / float64(reused+rebuiltAll)
	}
	p.set("decomp.bag_reuse_ratio", ratio, "ratio")
	return nil
}
