package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
)

// respWriter is a reusable in-memory http.ResponseWriter: serving is
// driven through Handler().ServeHTTP in process, with no sockets.
type respWriter struct {
	hdr  http.Header
	code int
	buf  bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) Flush()              {}
func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *respWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.buf.Write(b)
}

// client issues requests to one handler, one at a time.
type client struct {
	h http.Handler
	w respWriter
	// took is how long the handler served the last request.
	took time.Duration
}

func newClient(h http.Handler) *client {
	return &client{h: h, w: respWriter{hdr: http.Header{}}}
}

// do serves one request and returns the status; the body and headers
// stay in c.w until the next request.
func (c *client) do(method, url, body string) (int, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	c.serve(req)
	return c.w.code, nil
}

func (c *client) serve(req *http.Request) {
	clear(c.w.hdr)
	c.w.code = 0
	c.w.buf.Reset()
	t := time.Now()
	c.h.ServeHTTP(&c.w, req)
	c.took = time.Since(t)
}

// mustOK runs a request that has to succeed (set-up and updates).
func (c *client) mustOK(method, url, body string) error {
	code, err := c.do(method, url, body)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, url, code, c.w.buf.Bytes())
	}
	return nil
}

// classify maps a non-200 /topk status to a failure class; statuses
// that are neither a refusal nor a timeout are errors.
func classify(code int, body []byte) (outcome, error) {
	switch code {
	case http.StatusOK:
		return ok, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return refused, nil
	case http.StatusGatewayTimeout:
		return timedOut, nil
	}
	return ok, fmt.Errorf("status %d: %s", code, body)
}

// read is one /topk request; it returns the status, and reply reads
// the response.
func (c *client) read(q, agg string, k int) (int, error) {
	return c.do("GET", fmt.Sprintf("/v1/query/%s/topk?k=%d&agg=%s", q, k, agg), "")
}

// reply parses the last /topk response, of status code: the outcome,
// the answers and the output schema.
func (c *client) reply(code int) (outcome, []answer, []string, error) {
	if o, err := classify(code, c.w.buf.Bytes()); o != ok || err != nil {
		return o, nil, nil, err
	}
	res, tr, err := parseTopK(c.w.buf.Bytes())
	if err != nil {
		return ok, nil, nil, err
	}
	if tr.Error != "" {
		if strings.Contains(tr.Error, "deadline") {
			return timedOut, nil, nil, nil
		}
		return ok, nil, nil, fmt.Errorf("stream error: %s", tr.Error)
	}
	return ok, res, strings.Split(c.w.hdr.Get("X-Out-Attrs"), ","), nil
}

// serveWL drives the server in process. serve-read is a closed loop of
// two clients reading warm plans; serve-update (update set) is one
// client that patches E and reads every query after each patch.
type serveWL struct {
	seed   uint64
	update bool
	t      *tally

	base  *edgeSet // E as generated from the seed
	edges *edgeSet // E as the server holds it now
	// Oracle state over edges: one oracle per shape, and (serve-read,
	// whose data never changes) the answer counts and best weights.
	oracles map[string]*oracle
	totals  map[string]int
	prefix  map[string]map[string][]float64

	srv *server.Server
	// mw, when set, wraps the server's handler; tests inject faults
	// through it.
	mw  func(http.Handler) http.Handler
	rng *workload.Rand // delta sequence (serve-update)
}

// readAggs are the ranking functions the serving workloads read with.
func (w *serveWL) readAggs() []string {
	if w.update {
		return []string{"sum"}
	}
	return []string{"sum", "max"}
}

const scanK = 1000

// handler is the server's handler as the workload's clients see it.
func (w *serveWL) handler() http.Handler {
	if w.mw != nil {
		return w.mw(w.srv.Handler())
	}
	return w.srv.Handler()
}

func (w *serveWL) prepare() error {
	w.base = genEdges(w.seed)
	w.edges = w.base.clone()
	w.rng = workload.NewRand(w.seed ^ 0x5eed)
	if err := w.indexEdges(); err != nil {
		return err
	}
	if !w.update {
		w.totals, w.prefix = map[string]int{}, map[string]map[string][]float64{}
		for _, s := range edgeShapes {
			w.totals[s.name], w.prefix[s.name] = w.oracles[s.name].topWeights(scanK, w.readAggs())
		}
	}
	return nil
}

// indexEdges rebuilds the oracles over the current edge set.
func (w *serveWL) indexEdges() error {
	w.oracles = map[string]*oracle{}
	for _, s := range edgeShapes {
		o, err := newOracle(s, map[string]*edgeSet{"E": w.edges})
		if err != nil {
			return err
		}
		w.oracles[s.name] = o
	}
	return nil
}

// expectFor describes a correct answer to a read of shape q.
func (w *serveWL) expectFor(q, agg string, k int, outVars []string) expect {
	e := expect{o: w.oracles[q], outVars: outVars, agg: agg, k: k, total: -1}
	if w.prefix != nil {
		e.total, e.prefix = w.totals[q], w.prefix[q][agg]
	}
	return e
}

// checkedRead is a read whose answer is verified; a wrong answer is an
// error, a refusal or timeout only a failed call. It returns the
// outcome and the handler's latency in ms; parsing and checking run
// off the clock clk.
func (w *serveWL) checkedRead(c *client, clk *clock, class, q, agg string, k int, sp *span) (outcome, float64, error) {
	rs := sp.child("server.topk")
	code, err := c.read(q, agg, k)
	rs.end()
	lat := ms(c.took)
	if err != nil {
		return ok, lat, fmt.Errorf("%s %s k=%d: %w", q, agg, k, err)
	}
	var o outcome
	err = clk.untimed(func() error {
		cs := sp.child("check")
		defer cs.end()
		var res []answer
		var outVars []string
		var err error
		if o, res, outVars, err = c.reply(code); err != nil {
			return fmt.Errorf("%s %s k=%d: %w", q, agg, k, err)
		}
		w.t.add(class, o)
		if o != ok {
			return nil
		}
		if err := checkRanked(w.expectFor(q, agg, k, outVars), res); err != nil {
			return fmt.Errorf("wrong answer from %s: %w", q, err)
		}
		return nil
	})
	return o, lat, err
}

// setup starts a fresh server, uploads E, registers the five queries and
// warms their plans. The upload plus the first read of every query is
// one cold operation. Building request bodies and checking answers run
// off the clock.
func (w *serveWL) setup() (time.Duration, []float64, error) {
	w.close()
	w.edges = w.base.clone()
	if err := w.indexEdges(); err != nil {
		return 0, nil, err
	}
	upload := uploadBody(w.edges)
	clk := startClock()
	w.srv = server.New(server.Config{})
	c := newClient(w.handler())
	if err := c.mustOK("POST", "/v1/datasets/E", upload); err != nil {
		return 0, nil, err
	}
	cold := c.took
	for _, s := range edgeShapes {
		if err := c.mustOK("POST", "/v1/queries/"+s.name, queryBody(s)); err != nil {
			return 0, nil, err
		}
	}
	for _, s := range edgeShapes {
		if err := w.setupRead(c, &clk, s.name, "sum", 10); err != nil {
			return 0, nil, err
		}
		cold += c.took
	}
	for _, s := range edgeShapes {
		for _, agg := range w.readAggs() {
			for _, k := range []int{10, scanK} {
				if err := w.setupRead(c, &clk, s.name, agg, k); err != nil {
					return 0, nil, err
				}
			}
		}
	}
	return clk.elapsed(), []float64{ms(cold)}, nil
}

// mustRead is a read that has to succeed, and its answer must pass the
// check exp builds for the returned schema. Parsing and checking run
// off the clock clk, which may be nil.
func (c *client) mustRead(clk *clock, q, agg string, k int, exp func(outVars []string) expect) error {
	code, err := c.read(q, agg, k)
	if err == nil {
		err = clk.untimed(func() error {
			o, res, outVars, err := c.reply(code)
			if err == nil && o != ok {
				err = fmt.Errorf("refused or timed out")
			}
			if err == nil {
				err = checkRanked(exp(outVars), res)
			}
			return err
		})
	}
	if err != nil {
		return fmt.Errorf("%s %s k=%d: %w", q, agg, k, err)
	}
	return nil
}

func (w *serveWL) setupRead(c *client, clk *clock, q, agg string, k int) error {
	return c.mustRead(clk, q, agg, k, func(outVars []string) expect { return w.expectFor(q, agg, k, outVars) })
}

func (w *serveWL) phase(seconds float64, rec *recorder) (*phaseResult, error) {
	if w.update {
		return w.updatePhase(seconds, rec)
	}
	return w.readPhase(seconds, rec)
}

// readClients is the closed loop's client count, one per core of the
// reference machine.
const readClients = 2

// readRound is one client's fixed round of requests: every query under
// sum and max, nine times at k=10 and once at k=1000, in a seeded order.
func readRound(rng *workload.Rand) []readReq {
	var r []readReq
	for i := 0; i < 10; i++ {
		for _, s := range edgeShapes {
			for _, agg := range []string{"sum", "max"} {
				k := 10
				if i == 9 {
					k = scanK
				}
				r = append(r, readReq{s.name, agg, k})
			}
		}
	}
	for i := len(r) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		r[i], r[j] = r[j], r[i]
	}
	return r
}

type readReq struct {
	q, agg string
	k      int
}

func (w *serveWL) readPhase(seconds float64, rec *recorder) (*phaseResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(readClients))
	deadline := time.Duration(seconds * float64(time.Second))
	results := make([]*phaseResult, readClients)
	errs := make([]error, readClients)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < readClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			res := &phaseResult{clients: readClients}
			results[ci] = res
			c := newClient(w.handler())
			round := readRound(workload.NewRand(w.seed*31 + uint64(ci)))
			for time.Since(start) < deadline {
				res.startRound()
				for _, r := range round {
					sp := rec.op("serve-read.request")
					o, lat, err := w.checkedRead(c, &res.rc, classOf(r.k), r.q, r.agg, r.k, sp)
					sp.end()
					if err != nil {
						errs[ci] = err
						return
					}
					res.calls++
					if o != ok {
						continue
					}
					if r.k == scanK {
						res.scan.add(r.q+"/"+r.agg, lat)
					} else {
						res.topk.add(r.q+"/"+r.agg, lat)
					}
				}
				res.endRound()
			}
			res.elapsed = time.Since(start)
		}(ci)
	}
	wg.Wait()
	out := &phaseResult{}
	for ci := range results {
		if errs[ci] != nil {
			return nil, errs[ci]
		}
		out.merge(results[ci])
	}
	return out, nil
}

func classOf(k int) string {
	if k == scanK {
		return "scan"
	}
	return "topk"
}

// updateRound is the length of serve-update's fixed round: nine patch
// operations, then one re-upload.
const updateRound = 10

func (w *serveWL) updatePhase(seconds float64, rec *recorder) (*phaseResult, error) {
	deadline := time.Duration(seconds * float64(time.Second))
	res := &phaseResult{clients: 1}
	c := newClient(w.handler())
	start := time.Now()
	for time.Since(start) < deadline {
		res.startRound()
		for i := 0; i < updateRound; i++ {
			var err error
			if i == updateRound-1 {
				err = w.reupload(c, res, rec)
			} else {
				err = w.patchOp(c, res, rec)
			}
			if err != nil {
				return nil, err
			}
		}
		res.endRound()
		if res.retainedMB == 0 {
			// Each re-upload leaves the previous version's plans in the
			// registry until LRU eviction, so the live heap at the end
			// would grow with the number of rounds a run happens to
			// finish. Measure it after the first round instead, with
			// the clock stopped.
			pause := time.Now()
			res.retainedMB = heapMB()
			start = start.Add(time.Since(pause))
		}
	}
	res.elapsed = time.Since(start)
	return res, nil
}

// patchOp sends one append/delete batch, then reads every query at
// k=10 and then at k=1000. Making the batch and re-indexing the oracle
// run off the round's clock.
func (w *serveWL) patchOp(c *client, res *phaseResult, rec *recorder) error {
	sp := rec.op("serve-update.patch")
	defer sp.end()
	var d delta
	var body string
	res.rc.untimed(func() error {
		d = genSwaps(w.rng, w.edges, 2)
		body = patchBody(d)
		return nil
	})
	ps := sp.child("server.patch")
	code, err := c.do("PATCH", "/v1/datasets/E", body)
	ps.end()
	lat := ms(c.took)
	if err != nil {
		return err
	}
	o, err := classify(code, c.w.buf.Bytes())
	if err != nil {
		return fmt.Errorf("PATCH: %w", err)
	}
	w.t.add("patch", o)
	res.calls++
	if o != ok {
		return nil
	}
	res.patch = append(res.patch, lat)
	err = res.rc.untimed(func() error {
		w.edges.apply(d)
		return w.indexEdges()
	})
	if err != nil {
		return err
	}
	for _, s := range edgeShapes {
		o, lat, err := w.checkedRead(c, &res.rc, "topk", s.name, "sum", 10, sp)
		if err != nil {
			return err
		}
		res.calls++
		if o == ok {
			res.topk.add(s.name, lat)
		}
	}
	for _, s := range edgeShapes {
		o, lat, err := w.checkedRead(c, &res.rc, "scan", s.name, "sum", scanK, sp)
		if err != nil {
			return err
		}
		res.calls++
		if o == ok {
			res.scan.add(s.name, lat)
		}
	}
	return nil
}

// reupload posts the current edge set as a new version of E, which
// leaves every plan cold, and reads every query once: one cold
// operation.
func (w *serveWL) reupload(c *client, res *phaseResult, rec *recorder) error {
	sp := rec.op("serve-update.reupload")
	defer sp.end()
	var body string
	res.rc.untimed(func() error {
		body = uploadBody(w.edges)
		return nil
	})
	us := sp.child("server.upload")
	err := c.mustOK("POST", "/v1/datasets/E", body)
	us.end()
	if err != nil {
		return err
	}
	cold := ms(c.took)
	w.t.add("upload", ok)
	res.calls++
	failed := false
	for _, s := range edgeShapes {
		o, lat, err := w.checkedRead(c, &res.rc, "cold", s.name, "sum", 10, sp)
		if err != nil {
			return err
		}
		res.calls++
		cold += lat
		failed = failed || o != ok
	}
	if !failed {
		res.cold = append(res.cold, cold)
	}
	return nil
}

// finish checks the final state: in serve-update, every query's best
// 1000 answers on the final edge set against a fresh oracle run.
func (w *serveWL) finish() error {
	if !w.update {
		return nil
	}
	c := newClient(w.handler())
	for _, s := range edgeShapes {
		o := w.oracles[s.name]
		total, prefix := o.topWeights(scanK, []string{"sum"})
		err := c.mustRead(nil, s.name, "sum", scanK, func(outVars []string) expect {
			return expect{o: o, outVars: outVars, agg: "sum", k: scanK, total: total, prefix: prefix["sum"]}
		})
		if err != nil {
			return fmt.Errorf("final check: %w", err)
		}
	}
	return nil
}

func (w *serveWL) hitRatio() (float64, bool, error) {
	if w.srv == nil {
		return 0, false, fmt.Errorf("no server")
	}
	return statsHitRatio(newClient(w.handler()))
}

// statsHitRatio reads the plan registry's hits over lookups from
// /v1/stats.
func statsHitRatio(c *client) (float64, bool, error) {
	if err := c.mustOK("GET", "/v1/stats", ""); err != nil {
		return 0, false, err
	}
	var st struct {
		Registry struct{ Hits, Misses int64 } `json:"registry"`
	}
	if err := json.Unmarshal(c.w.buf.Bytes(), &st); err != nil {
		return 0, false, err
	}
	n := st.Registry.Hits + st.Registry.Misses
	if n == 0 {
		return 0, false, fmt.Errorf("/v1/stats reports no plan lookups")
	}
	return float64(st.Registry.Hits) / float64(n), true, nil
}

func (w *serveWL) close() {
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
}
