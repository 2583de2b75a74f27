// Command perfbench is the repository's benchmark: it runs one seeded
// workload against the real program in this process, checks every
// answer against its own brute-force oracle, and prints the metrics as
// one JSON object on the last line of standard output.
//
//	perfbench --workload serve-read --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the workload untraced and then traced for half the time each,
// times the calls into each internal package, and reports the
// per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// setupReps is how many times a run sets up its workload; setup_s is
// the median, and the last set-up is the one the timed phase uses.
const setupReps = 5

// spanDir is where a traced run writes its spans, relative to the
// working directory.
const spanDir = ".bench_build/spans"

// workloadRunner is one workload. prepare builds the oracle (untimed);
// setup builds the program's state from scratch and returns its
// duration and any cold-operation samples it took; phase runs the
// fixed operation sequence for about the given time; finish runs the
// end-of-run checks.
type workloadRunner interface {
	prepare() error
	setup() (time.Duration, []float64, error)
	phase(seconds float64, rec *recorder) (*phaseResult, error)
	finish() error
	// hitRatio returns the serving plan cache's hits over lookups, or
	// false for a workload without a server.
	hitRatio() (float64, bool, error)
	close()
}

// phaseResult is what one timed phase measured. Latencies are in ms.
type phaseResult struct {
	calls   int64
	elapsed time.Duration
	// roundRates holds each round's calls per second, per client;
	// clients is how many clients ran rounds side by side.
	roundRates []float64
	clients    int
	// rc times the round in progress, which began at roundCalls calls;
	// the benchmark's own work in a round runs under rc.untimed.
	rc         clock
	roundCalls int64
	// retainedMB, when set, is the live heap the workload measured at a
	// fixed point of its sequence (see serveWL.updatePhase).
	retainedMB float64
	topk       byClass   // warm k=10 reads
	scan       byClass   // long reads
	cold       []float64 // cold operations
	patch      []float64 // PATCH latencies (serve-update)
	// accepted samples and the time spent sampling (library)
	samples    int
	sampleTime time.Duration
}

// opsPerSec is the throughput of a typical round: the median over
// rounds of each round's calls per second, times the clients running
// side by side. A burst of lost CPU time slows a few rounds, not the
// median.
func (p *phaseResult) opsPerSec() float64 {
	return float64(p.clients) * median(p.roundRates)
}

// startRound begins a round of calls.
func (p *phaseResult) startRound() { p.rc, p.roundCalls = startClock(), p.calls }

// endRound records the finished round's calls per second of the
// program's time.
func (p *phaseResult) endRound() {
	p.roundRates = append(p.roundRates, float64(p.calls-p.roundCalls)/p.rc.elapsed().Seconds())
}

func (p *phaseResult) merge(q *phaseResult) {
	p.calls += q.calls
	p.elapsed = max(p.elapsed, q.elapsed)
	p.roundRates = append(p.roundRates, q.roundRates...)
	p.clients = max(p.clients, q.clients)
	p.topk.merge(q.topk)
	p.scan.merge(q.scan)
	p.cold = append(p.cold, q.cold...)
	p.patch = append(p.patch, q.patch...)
	p.samples += q.samples
	p.sampleTime += q.sampleTime
}

// tally counts attempted and failed calls per operation class. Only
// refusals, timeouts and exhausted sampling budgets count as failed;
// any other error ends the run.
type tally struct {
	mu      sync.Mutex
	classes map[string]*classCount
}

type classCount struct {
	attempted, refused, timeout, budget int64
}

func (c *classCount) failed() int64 { return c.refused + c.timeout + c.budget }

type outcome int

const (
	ok outcome = iota
	refused
	timedOut
	budgetExhausted
)

func (t *tally) add(class string, o outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.classes == nil {
		t.classes = map[string]*classCount{}
	}
	c := t.classes[class]
	if c == nil {
		c = &classCount{}
		t.classes[class] = c
	}
	c.attempted++
	switch o {
	case refused:
		c.refused++
	case timedOut:
		c.timeout++
	case budgetExhausted:
		c.budget++
	}
}

func (t *tally) totals() (attempted, failed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.classes {
		attempted += c.attempted
		failed += c.failed()
	}
	return
}

func (t *tally) print() {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.classes))
	for n := range t.classes {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-10s %10s %8s %8s %8s %8s\n", "class", "attempted", "failed", "refused", "timeout", "budget")
	for _, n := range names {
		c := t.classes[n]
		fmt.Printf("%-10s %10d %8d %8d %8d %8d\n", n, c.attempted, c.failed(), c.refused, c.timeout, c.budget)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wl := flag.String("workload", "", "serve-read, serve-update or library")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 25, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*wl, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func newWorkload(name string, seed uint64, t *tally) (workloadRunner, error) {
	switch name {
	case "serve-read":
		return &serveWL{seed: seed, t: t}, nil
	case "serve-update":
		return &serveWL{seed: seed, t: t, update: true}, nil
	case "library":
		return &libWL{seed: seed, t: t}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (serve-read, serve-update, library)", name)
}

func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func run(name string, seed uint64, seconds float64, trace bool) error {
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	// The program runs on one P, except in serve-read's timed phase,
	// which gives each of its closed-loop clients a P of its own. With
	// two Ps the program splits prepare work across both CPUs, and on a
	// shared 2-vCPU machine that work then waits for whichever CPU the
	// other guests slow: in paired runs the spread of the median cold
	// operation was 0.31 of its median with two Ps and 0.07 with one.
	runtime.GOMAXPROCS(1)
	t := &tally{}
	w, err := newWorkload(name, seed, t)
	if err != nil {
		return err
	}
	defer w.close()
	fmt.Printf("perfbench %s, workload %s, seed %d\n", fixtureVersion, name, seed)
	t0 := time.Now()
	if err := w.prepare(); err != nil {
		return err
	}
	fmt.Printf("oracle: %.2fs (untimed)\n", time.Since(t0).Seconds())
	var setups, setupCold []float64
	var baseMB float64
	for rep := 0; rep < setupReps; rep++ {
		if rep == setupReps-1 {
			w.close()
			baseMB = heapMB()
		}
		d, cold, err := w.setup()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		setupCold = append(setupCold, cold...)
	}

	metrics := map[string]metric{}
	var rec *recorder
	if !trace {
		ph, err := w.phase(seconds, nil)
		if err != nil {
			return err
		}
		retained := heapMB()
		if ph.retainedMB > 0 {
			retained = ph.retainedMB
		}
		retained -= baseMB
		if err := w.finish(); err != nil {
			return err
		}
		if len(ph.cold) == 0 {
			ph.cold = setupCold
		}
		printPhase(name, ph)
		metrics["setup_s"] = metric{median(setups), "s"}
		metrics["ops_per_s"] = metric{ph.opsPerSec(), "1/s"}
		metrics["topk_p50_ms"] = metric{ph.topk.quantile(0.5), "ms"}
		metrics["topk_p90_ms"] = metric{ph.topk.quantile(0.9), "ms"}
		metrics["scan_p50_ms"] = metric{ph.scan.quantile(0.5), "ms"}
		metrics["retained_mb"] = metric{retained, "MB"}
	} else {
		plain, err := w.phase(seconds/2, nil)
		if err != nil {
			return err
		}
		rec = newRecorder()
		traced, err := w.phase(seconds/2, rec)
		if err != nil {
			return err
		}
		if err := w.finish(); err != nil {
			return err
		}
		fmt.Println("untraced half:")
		printPhase(name, plain)
		fmt.Println("traced half:")
		printPhase(name, traced)
		pct := func(a, b float64) float64 { return 100 * (b - a) / a }
		metrics["trace.overhead_pct.topk_p50_ms"] = metric{pct(plain.topk.quantile(0.5), traced.topk.quantile(0.5)), "%"}
		metrics["trace.overhead_pct.ops_per_s"] = metric{
			pct(plain.opsPerSec(), traced.opsPerSec()), "%"}
		if r, ok, err := w.hitRatio(); err != nil {
			return err
		} else if ok {
			metrics["server.plan_cache_hit_ratio"] = metric{r, "ratio"}
		}
		w.close()
		if err := probeLayers(seed, rec, metrics); err != nil {
			return fmt.Errorf("layer probes: %w", err)
		}
		path := filepath.Join(spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := rec.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(rec.spans), path)
		printSelfTimes(os.Stdout, rec.selfTimes())
	}

	want := endToEnd
	if trace {
		want = perLayer
	}
	for _, m := range want {
		v, ok := metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v.Value)
		}
		if v.Unit != m.unit {
			return fmt.Errorf("metric %s has unit %s, want %s", m.name, v.Unit, m.unit)
		}
	}
	if len(metrics) != len(want) {
		return fmt.Errorf("measured %d metrics, want %d", len(metrics), len(want))
	}
	t.print()
	attempted, failed := t.totals()
	out, err := json.Marshal(result{Correct: true, Attempted: attempted, Failed: failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func printPhase(name string, p *phaseResult) {
	fmt.Printf("%s: %d calls in %.2fs, %d rounds; topk n=%d p50=%.4fms p90=%.4fms; scan n=%d p50=%.4fms",
		name, p.calls, p.elapsed.Seconds(), len(p.roundRates), p.topk.n(), p.topk.quantile(0.5), p.topk.quantile(0.9),
		p.scan.n(), p.scan.quantile(0.5))
	if len(p.cold) > 0 {
		fmt.Printf("; cold n=%d p50=%.3fms", len(p.cold), median(p.cold))
	}
	if len(p.patch) > 0 {
		fmt.Printf("; patch n=%d p50=%.3fms", len(p.patch), median(p.patch))
	}
	if p.sampleTime > 0 {
		fmt.Printf("; samples_per_s=%.1f", float64(p.samples)/p.sampleTime.Seconds())
	}
	fmt.Println()
	for _, c := range []struct {
		name string
		b    byClass
	}{{"topk", p.topk}, {"scan", p.scan}} {
		names := make([]string, 0, len(c.b))
		for n := range c.b {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %s %-18s n=%-6d p50=%.4fms p90=%.4fms\n", c.name, n, len(c.b[n]), median(c.b[n]), quantile(c.b[n], 0.9))
		}
	}
}
