package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/datalog"
	"repro/internal/obs"
)

// tracer records benchmark-side spans — workload → operation → layer
// call — on one obs.Trace. A nil *tracer records nothing, so the
// untraced runs pay one nil check per operation.
type tracer struct {
	tr *obs.Trace
}

func newTracer(workload string) *tracer { return &tracer{tr: obs.NewTrace("workload " + workload)} }

func (t *tracer) root() obs.SpanID {
	if t == nil {
		return obs.SpanID{}
	}
	return t.tr.Root()
}

// span times f as a child of parent and returns the span id (zero when
// untraced) and the elapsed time.
func (t *tracer) span(name string, parent obs.SpanID, f func(id obs.SpanID)) (obs.SpanID, time.Duration) {
	if t == nil {
		start := time.Now()
		f(obs.SpanID{})
		return obs.SpanID{}, time.Since(start)
	}
	start := time.Now()
	id := t.tr.StartSpanAt(name, parent, start)
	f(id)
	end := time.Now()
	t.tr.EndSpanAt(id, end)
	return id, end.Sub(start)
}

// record adds an already timed span.
func (t *tracer) record(name string, parent obs.SpanID, start, end time.Time) {
	if t != nil {
		t.tr.RecordSpan(name, parent, start, end)
	}
}

// switchSink is the Options.Sink a program is loaded with: the engine
// fixes its sink at Load, and the traced runs point it at a fresh
// obs.SpanSink under each solve's operation span.
type switchSink struct {
	mu sync.Mutex
	to datalog.EventSink
}

func (s *switchSink) set(to datalog.EventSink) {
	s.mu.Lock()
	s.to = to
	s.mu.Unlock()
}

func (s *switchSink) Event(e datalog.Event) {
	s.mu.Lock()
	to := s.to
	s.mu.Unlock()
	if to != nil {
		to.Event(e)
	}
}

// writeChrome writes traces as one Chrome trace-event file, which
// Perfetto and about:tracing open.
func writeChrome(path string, recs []obs.TraceRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per layer, the time a layer's spans cover minus the
// part of it their child spans cover. A layer is the span name up to
// the first space: "rule 7" and "rule 9" are both "rule".
func selfTimes(rec obs.TraceRecord) map[string]time.Duration {
	children := map[obs.SpanID][]obs.Span{}
	for _, sp := range rec.Spans {
		if !sp.Parent.IsZero() {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	out := map[string]time.Duration{}
	for _, sp := range rec.Spans {
		if sp.End.IsZero() {
			continue
		}
		covered := union(sp.Start, sp.End, children[sp.ID])
		out[layerOf(sp.Name)] += sp.End.Sub(sp.Start) - covered
	}
	return out
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, ' '); i > 0 {
		return name[:i]
	}
	return name
}

// union returns how much of [start, end] the spans cover together;
// overlapping children (components running in parallel) count once.
func union(start, end time.Time, spans []obs.Span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, sp := range spans {
		a, b := sp.Start, sp.End
		if b.IsZero() {
			continue
		}
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		if i == 0 || v.a.After(cur.b) {
			if i > 0 {
				total += cur.b.Sub(cur.a)
			}
			cur = v
			continue
		}
		if v.b.After(cur.b) {
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// printSelfTimes reports self time per layer, largest first.
func printSelfTimes(w io.Writer, workload string, self map[string]time.Duration) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Fprintf(w, "self %-16s %-28s %12.3f ms\n", workload, n, float64(self[n].Nanoseconds())/1e6)
	}
}

// chromeEvent is the subset of a Chrome trace event the benchmark
// reads back from the server's /debug/traces.
type chromeEvent struct {
	Name string `json:"name"`
	Dur  int64  `json:"dur"` // microseconds
}

// commitSpans groups the durations of the server's commit-path spans
// by span name, in milliseconds.
func commitSpans(r io.Reader) (map[string]samples, error) {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding /debug/traces: %w", err)
	}
	out := map[string]samples{}
	for _, ev := range doc.TraceEvents {
		switch ev.Name {
		case "queue", "solve", "publish", "wal.append", "wal.fsync":
			out[ev.Name] = append(out[ev.Name], float64(ev.Dur)/1e3)
		}
	}
	return out, nil
}
