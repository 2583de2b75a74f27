package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// recorder keeps the spans of a traced run in memory. A nil recorder
// records nothing, so untraced runs pay one nil check per span.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []spanRec
}

// spanRec is one finished span. Op is shared by every span of one
// operation; Parent is 0 for an operation's root span.
type spanRec struct {
	ID, Parent, Op int64
	Name           string
	Start, End     time.Duration // since the recorder started
}

// span is an open span; the zero of *span (nil) is a no-op.
type span struct {
	r          *recorder
	id, parent int64
	op         int64
	name       string
	start      time.Time
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// op opens the root span of a new operation.
func (r *recorder) op(name string) *span {
	if r == nil {
		return nil
	}
	id := r.nextID.Add(1)
	return &span{r: r, id: id, op: id, name: name, start: time.Now()}
}

// child opens a span caused by s.
func (s *span) child(name string) *span {
	if s == nil {
		return nil
	}
	return &span{r: s.r, id: s.r.nextID.Add(1), parent: s.id, op: s.op, name: name, start: time.Now()}
}

func (s *span) end() {
	if s == nil {
		return
	}
	end := time.Now()
	s.r.mu.Lock()
	s.r.spans = append(s.r.spans, spanRec{
		ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
		Start: s.start.Sub(s.r.t0), End: end.Sub(s.r.t0),
	})
	s.r.mu.Unlock()
}

// selfStat aggregates the spans of one name.
type selfStat struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes returns, per span name, the count, the total duration and
// the self time: each span's duration minus the part of it its
// children cover.
func (r *recorder) selfTimes() []selfStat {
	kids := map[int64][]spanRec{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	by := map[string]*selfStat{}
	for _, s := range r.spans {
		st := by[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.Total += s.End - s.Start
		st.Self += s.End - s.Start - covered(s, kids[s.ID])
	}
	out := make([]selfStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p spanRec, kids []spanRec) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur, curEnd := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// write stores the spans as JSON lines under dir.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range r.spans {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"op":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, s.Op, s.Name, s.Start.Nanoseconds(), s.End.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes writes the self-time table of a traced run.
func printSelfTimes(w io.Writer, stats []selfStat) {
	fmt.Fprintf(w, "%-34s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range stats {
		fmt.Fprintf(w, "%-34s %8d %12.3f %12.3f\n", s.Name, s.Count, ms(s.Total), ms(s.Self))
	}
}
