package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is not modified). It returns NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// slope fits y = a + b·x by least squares and returns b.
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// timeIt runs f reps times and returns the median duration in ms.
func timeIt(reps int, f func()) float64 {
	d := make([]float64, reps)
	for i := range d {
		t := time.Now()
		f()
		d[i] = ms(time.Since(t))
	}
	return median(d)
}

// clock measures the program's time: the time elapsed since it
// started, less the benchmark's own work done under untimed (input
// generation, parsing, oracle checks).
type clock struct {
	start time.Time
	off   time.Duration
}

func startClock() clock { return clock{start: time.Now()} }

// untimed runs f and leaves its time out of the clock. A nil clock
// just runs f.
func (c *clock) untimed(f func() error) error {
	if c == nil {
		return f()
	}
	t := time.Now()
	defer func() { c.off += time.Since(t) }()
	return f()
}

func (c *clock) elapsed() time.Duration { return time.Since(c.start) - c.off }

// byClass holds latency samples per operation class: one query under
// one ranking function. A mix of classes has one mode per class, and a
// quantile of the pooled samples that falls between two modes jumps
// with every small shift in them; the quantile of each class is
// steady. So the reported figure is the median across classes of each
// class's quantile.
type byClass map[string][]float64

func (b *byClass) add(class string, v float64) {
	if *b == nil {
		*b = byClass{}
	}
	(*b)[class] = append((*b)[class], v)
}

func (b *byClass) merge(o byClass) {
	for c, xs := range o {
		for _, x := range xs {
			b.add(c, x)
		}
	}
}

func (b byClass) n() int {
	n := 0
	for _, xs := range b {
		n += len(xs)
	}
	return n
}

// quantile returns the median over classes of each class's q-quantile.
func (b byClass) quantile(q float64) float64 {
	var qs []float64
	for _, xs := range b {
		qs = append(qs, quantile(xs, q))
	}
	return median(qs)
}
