package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary: name is the layer call,
// label what was asked of it (a strategy, "cold", ...), trace the request
// it served and parent the span that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores a finished span and returns its id.
func (t *tracer) record(name, label string, trace, parent int64, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name, Label: label,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// setParent links a recorded span to the span that caused it.
func (t *tracer) setParent(child, parent int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[child-1].Parent = parent
}

// replayed records a span for a call that repeats, on its own, work that
// already ran inside the parent span (an in-process call of the layer
// below on the same request). Its interval is re-based onto the parent's
// start, so the self-time rule treats it as the nested call it stands for.
func (t *tracer) replayed(name, label string, parent int64, d time.Duration) {
	t.mu.Lock()
	p := t.spans[parent-1]
	t.mu.Unlock()
	start := t.t0.Add(time.Duration(p.Start))
	t.record(name, label, p.Trace, parent, start, start.Add(d))
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to s.
func covered(s span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = s.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		total += v.b - v.a
		end = v.b
	}
	return total
}

// layerStats aggregates spans by (name, label): per trace, the summed
// durations and summed self times of the matching spans, so a layer
// called twice for one request (Best Match's two shard rounds) counts as
// one request's work.
type layerStats struct {
	dur, self map[string][]float64 // µs per trace, keyed name or name.label
}

func aggregate(spans []span) layerStats {
	self := selfTimes(spans)
	type key struct {
		name  string
		trace int64
	}
	dur := map[key]int64{}
	slf := map[key]int64{}
	var order []key
	for _, s := range spans {
		for _, name := range []string{s.Name, s.Name + "." + s.Label} {
			if s.Label == "" && name != s.Name {
				continue
			}
			k := key{name, s.Trace}
			if _, ok := dur[k]; !ok {
				order = append(order, k)
			}
			dur[k] += s.dur()
			slf[k] += self[s.ID]
		}
	}
	ls := layerStats{dur: map[string][]float64{}, self: map[string][]float64{}}
	for _, k := range order {
		ls.dur[k.name] = append(ls.dur[k.name], float64(dur[k])/1e3)
		ls.self[k.name] = append(ls.self[k.name], float64(slf[k])/1e3)
	}
	return ls
}

// medianDur is the median per-request duration of a layer call in µs.
func (ls layerStats) medianDur(name string) float64 { return medianOf(ls.dur[name]) }

// medianSelf is the median per-request self time of a layer call in µs.
func (ls layerStats) medianSelf(name string) float64 { return medianOf(ls.self[name]) }

// traceID hands out request identifiers shared by a request's spans.
type traceID struct {
	mu sync.Mutex
	n  int64
}

func (t *traceID) next() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n++
	return t.n
}

// spansPath is where a traced run leaves its spans: outside the run's
// scratch directory, which is removed at exit.
func spansPath(e *env) string {
	return fmt.Sprintf("%s/spans-%s-%d.jsonl", e.work, e.workload, e.seed)
}
