package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer. Name is "<layer>.<op>"; Parent is 0
// for a root span. Job ties the spans of one request or job together.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pay one nil check per call site.
type Tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{origin: time.Now()} }

// Record stores a finished span and returns its ID (0 on a nil tracer).
func (t *Tracer) Record(name, job string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name, Job: job,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// Reserve allocates a span ID for a span whose children finish before it
// does; Finish fills it in later.
func (t *Tracer) Reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: int64(len(t.spans) + 1)})
	return int64(len(t.spans))
}

// Finish completes a reserved span.
func (t *Tracer) Finish(id int64, name, job string, parent int64, start, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = Span{
		ID: id, Parent: parent, Name: name, Job: job,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	}
}

// Spans returns a copy of every finished span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.Name != "" { // reserved but never finished
			out = append(out, s)
		}
	}
	return out
}

// Durations lists the wall time of every span with the given name, in ms.
func Durations(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.Dur())/1e6)
		}
	}
	return out
}

// SelfTimes returns the self time per span name: the wall time during
// which a span of that name is open and none of its own children is. Within
// one trace tree, overlapping self time of same-named spans (parallel
// sub-jobs) counts once; separate trees (concurrent requests) add up.
func SelfTimes(spans []Span) map[string]time.Duration {
	return selfBy(spans, func(s Span) string { return s.Name })
}

// LayerSelfTimes is SelfTimes folded by layer, the part of a span's name
// before the first dot.
func LayerSelfTimes(spans []Span) map[string]time.Duration {
	return selfBy(spans, func(s Span) string {
		layer, _, _ := strings.Cut(s.Name, ".")
		return layer
	})
}

func selfBy(spans []Span, key func(Span) string) map[string]time.Duration {
	parent := make(map[int64]int64, len(spans))
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		parent[s.ID] = s.Parent
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	root := func(id int64) int64 {
		for parent[id] != 0 {
			id = parent[id]
		}
		return id
	}
	type group struct {
		root int64
		key  string
	}
	own := make(map[group][][2]int64)
	for _, s := range spans {
		g := group{root(s.ID), key(s)}
		own[g] = append(own[g], minus(s.Start, s.End, children[s.ID])...)
	}
	out := make(map[string]time.Duration)
	for g, ivs := range own {
		out[g.key] += time.Duration(unionLen(ivs))
	}
	return out
}

// merge sorts intervals and joins the overlapping ones.
func merge(ivs [][2]int64) [][2]int64 {
	s := append([][2]int64(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	var out [][2]int64
	for _, iv := range s {
		if iv[1] <= iv[0] {
			continue
		}
		if n := len(out); n > 0 && iv[0] <= out[n-1][1] {
			out[n-1][1] = max(out[n-1][1], iv[1])
			continue
		}
		out = append(out, iv)
	}
	return out
}

// minus is [lo, hi] with the intervals cut out.
func minus(lo, hi int64, cut [][2]int64) [][2]int64 {
	var out [][2]int64
	at := lo
	for _, iv := range merge(cut) {
		if iv[1] <= at || iv[0] >= hi {
			continue
		}
		if iv[0] > at {
			out = append(out, [2]int64{at, iv[0]})
		}
		at = max(at, iv[1])
	}
	if at < hi {
		out = append(out, [2]int64{at, hi})
	}
	return out
}

// unionLen is the total length covered by the intervals.
func unionLen(ivs [][2]int64) int64 {
	var t int64
	for _, iv := range merge(ivs) {
		t += iv[1] - iv[0]
	}
	return t
}

// traceHeader is the first line of a trace file; one span per line
// follows.
type traceHeader struct {
	Stamp   Stamp              `json:"stamp"`
	Metrics map[string]Metric  `json:"metrics"`
	SelfMs  map[string]float64 `json:"self_ms_by_span"`
}

// writeTrace writes a traced run's per-layer metrics and spans as JSON
// lines and returns the file's path.
func writeTrace(dir string, st Stamp, metrics map[string]Metric, spans []Span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	self := make(map[string]float64)
	for name, d := range SelfTimes(spans) {
		self[name] = float64(d) / 1e6
	}
	// One file per workload, replaced by the next traced run: a serve trace
	// holds a few hundred thousand spans, about 30 MB.
	path := filepath.Join(dir, st.Workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(traceHeader{Stamp: st, Metrics: metrics, SelfMs: self})
	for i := 0; err == nil && i < len(spans); i++ {
		err = enc.Encode(spans[i])
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
