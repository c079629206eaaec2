package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"repro/datalog"
	"repro/internal/ast"
	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/deps"
	"repro/internal/monotone"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/safety"
	"repro/internal/server"
)

// probeReps is how often each per-layer call is repeated; the metric
// is the median.
const probeReps = 7

// loadParts times datalog.Load and, separately, each static layer Load
// runs, on the same program text. Every value is a median in ms.
type loadParts struct {
	load, parse, safety, consistency, monotone, deps float64
}

func (lp loadParts) sumParts() float64 {
	return lp.parse + lp.safety + lp.consistency + lp.monotone + lp.deps
}

func measureLoadParts(src string, t *tracer) (loadParts, error) {
	var load, parse, safe, cons, mono, dep samples
	root := t.root()
	for i := 0; i < probeReps; i++ {
		var err error
		_, d := t.span("datalog.Load", root, func(obs.SpanID) {
			_, err = datalog.Load(src, datalog.Options{Parallelism: procs})
		})
		if err != nil {
			return loadParts{}, err
		}
		load.add(d)
		var prog *ast.Program
		_, d = t.span("parser.Parse", root, func(obs.SpanID) { prog, err = parser.Parse(src) })
		if err != nil {
			return loadParts{}, err
		}
		parse.add(d)
		schemas, err := ast.BuildSchemas(prog)
		if err != nil {
			return loadParts{}, err
		}
		_, d = t.span("safety.CheckProgram", root, func(obs.SpanID) { err = safety.CheckProgram(prog, schemas) })
		if err != nil {
			return loadParts{}, err
		}
		safe.add(d)
		_, d = t.span("consistency.ConflictFree", root, func(obs.SpanID) { err = consistency.ConflictFree(prog, schemas) })
		if err != nil {
			return loadParts{}, err
		}
		cons.add(d)
		_, d = t.span("monotone.CheckProgram", root, func(obs.SpanID) { monotone.CheckProgram(prog, schemas) })
		mono.add(d)
		_, d = t.span("deps.Build", root, func(obs.SpanID) { deps.Build(prog).SCCs() })
		dep.add(d)
	}
	return loadParts{load.p50(), parse.p50(), safe.p50(), cons.p50(), mono.p50(), dep.p50()}, nil
}

// compTimer is a benchmark sink on the public Options.Sink: it times
// every component from its ComponentBegin to its ComponentEnd.
type compTimer struct {
	begin map[int]time.Time
	busy  []time.Duration
}

func (c *compTimer) Event(e datalog.Event) {
	switch e.Kind {
	case datalog.EventComponentBegin:
		c.begin[e.Component] = time.Now()
	case datalog.EventComponentEnd:
		if b, ok := c.begin[e.Component]; ok {
			c.busy = append(c.busy, time.Since(b))
		}
	}
}

// probeLayers measures every per-layer metric that is a direct call
// into one module, on the workload's own program and input.
func probeLayers(in *instance, t *tracer, res *result) error {
	lp, err := measureLoadParts(in.src, t)
	if err != nil {
		return err
	}
	res.metrics["parser.parse_ms"] = lp.parse
	res.metrics["safety.check_ms"] = lp.safety
	res.metrics["consistency.conflict_free_ms"] = lp.consistency
	res.metrics["monotone.check_ms"] = lp.monotone
	res.metrics["deps.build_ms"] = lp.deps
	res.metrics["core.compile_ms"] = lp.load - lp.sumParts()

	// The fixpoint: exact work counters, and per-component busy time
	// seen through a sink.
	ct := &compTimer{begin: map[int]time.Time{}}
	p, err := datalog.Load(in.src, datalog.Options{Parallelism: procs, Sink: ct})
	if err != nil {
		return err
	}
	var solve, busySum, busyMax, eff samples
	var m *datalog.Model
	var st datalog.Stats
	for i := 0; i < probeReps; i++ {
		ct.busy = ct.busy[:0]
		start := time.Now()
		if m, st, err = p.Solve(); err != nil {
			return err
		}
		wall := time.Since(start)
		solve.add(wall)
		var sum, top time.Duration
		for _, b := range ct.busy {
			sum += b
			top = max(top, b)
		}
		busySum.add(sum)
		busyMax.add(top)
		eff = append(eff, float64(sum)/float64(wall*procs))
	}
	res.metrics["core.rounds"] = float64(st.Rounds)
	res.metrics["core.firings"] = float64(st.Firings)
	res.metrics["core.derived"] = float64(st.Derived)
	res.metrics["core.probes"] = float64(st.Probes)
	res.metrics["core.model_facts"] = float64(m.Size())
	res.metrics["core.derived_per_fact"] = float64(st.Derived) / float64(m.Size())
	res.metrics["core.ns_per_derived"] = solve.p50() * 1e6 / float64(max(st.Derived, 1))
	res.metrics["core.comp_busy_ms_sum"] = busySum.p50()
	res.metrics["core.comp_busy_ms_max"] = busyMax.p50()
	res.metrics["core.parallel_eff"] = eff.p50()

	// The cubic company-control iteration takes most of a second at
	// n=384, so the baseline stops after three runs once two seconds
	// have gone.
	var direct samples
	for start := time.Now(); len(direct) < probeReps && (len(direct) < 3 || time.Since(start) < 2*time.Second); {
		_, d := t.span("baseline", t.root(), func(obs.SpanID) { in.direct() })
		direct.add(d)
	}
	res.metrics["baseline.direct_ms"] = direct.p50()
	res.metrics["core.solve_over_baseline"] = solve.p50() / direct.p50()

	// The relation layer: what the model costs to hold and to copy.
	m = nil
	before := liveHeap()
	held, _, err := p.Solve()
	if err != nil {
		return err
	}
	grown := float64(liveHeap()) - float64(before)
	res.metrics["relation.model_mb"] = grown / (1 << 20)
	res.metrics["relation.bytes_per_fact"] = grown / float64(held.Size())

	if err := probeClone(in.src, t, res); err != nil {
		return err
	}

	// The facade: incremental extension and point lookups.
	var more samples
	cur := held
	for i := 0; i < probeReps*2 && i < len(in.updates); i++ {
		var next *datalog.Model
		_, d := t.span("datalog.SolveMore", t.root(), func(obs.SpanID) {
			next, _, err = p.SolveMoreContext(context.Background(), cur, []datalog.Fact{in.updates[i]})
		})
		if err != nil {
			return fmt.Errorf("SolveMore %v: %w", in.updates[i], err)
		}
		more.add(d)
		cur = next
	}
	res.metrics["datalog.solve_more_ms_p50"] = more.p50()
	var lookup samples
	for rep := 0; rep < 4; rep++ {
		for _, k := range in.lookups {
			start := time.Now()
			_, ok := held.Cost(in.lookupPred, k...)
			lookup.add(time.Since(start))
			if !ok && in.lookupPred == "s" {
				res.fail(1, "Model.Cost(s, %v) found nothing", k)
			}
		}
	}
	res.metrics["datalog.cost_lookup_us_p50"] = lookup.p50() * 1e3
	return probeHandlers(in, t, res)
}

// probeClone copies the solved core.Engine database, the copy every
// server commit makes before extending the model.
func probeClone(src string, t *tracer, res *result) error {
	prog, err := parser.Parse(src)
	if err != nil {
		return err
	}
	en, err := core.New(prog, core.Options{Limits: core.Limits{Parallelism: procs}})
	if err != nil {
		return err
	}
	db, _, err := en.Solve(nil)
	if err != nil {
		return err
	}
	var clone samples
	for i := 0; i < probeReps; i++ {
		_, d := t.span("relation.Clone", t.root(), func(obs.SpanID) { db.Clone() })
		clone.add(d)
	}
	res.metrics["relation.clone_ms"] = clone.p50()
	return nil
}

// probeHandlers calls the server's handler directly, with no socket, on
// the same request bodies the load generator sends.
func probeHandlers(in *instance, t *tracer, res *result) error {
	srv, err := server.New(specs([]*instance{in}), server.Config{})
	if err != nil {
		return err
	}
	defer srv.Close()
	if err := srv.Materialize(context.Background()); err != nil {
		return err
	}
	h := srv.Handler()
	serve := func(name string, body []byte) (time.Duration, error) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		_, d := t.span(name, t.root(), func(obs.SpanID) { h.ServeHTTP(rec, req) })
		if rec.Code != http.StatusOK {
			return d, fmt.Errorf("%s: status %d: %s", name, rec.Code, rec.Body.String())
		}
		return d, nil
	}
	var query, scan samples
	for rep := 0; rep < 4; rep++ {
		for _, k := range in.lookups {
			d, err := serve("server.query", queryBody(0, "cost", in.lookupPred, k))
			if err != nil {
				return err
			}
			query.add(d)
		}
		for _, k := range in.scans {
			d, err := serve("server.scan", queryBody(0, "facts", in.scanPred, k))
			if err != nil {
				return err
			}
			scan.add(d)
		}
	}
	res.metrics["server.handler_query_us_p50"] = query.p50() * 1e3
	res.metrics["server.handler_scan_us_p50"] = scan.p50() * 1e3
	return nil
}

// finishTrace writes the Chrome trace and prints self time per layer.
// The Chrome trace keeps the engine spans of the first chromeSolves
// solves only; with all of them a traced solve-aggregates run writes
// about 100 MB. Self times count every span.
const chromeSolves = 16

func finishTrace(w io.Writer, cfg config, t *tracer) error {
	rec := t.tr.Finish()
	printSelfTimes(w, cfg.workload, selfTimes(rec))
	path := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s.json", cfg.workload))
	kept := firstSolves(rec, chromeSolves)
	if err := writeChrome(path, []obs.TraceRecord{kept}); err != nil {
		return err
	}
	fmt.Fprintf(w, "trace %s (%d of %d spans, Chrome trace-event JSON)\n", path, len(kept.Spans), len(rec.Spans))
	return nil
}

// firstSolves drops the spans below every "op solve" span but the
// first n.
func firstSolves(rec obs.TraceRecord, n int) obs.TraceRecord {
	parent := map[obs.SpanID]obs.SpanID{}
	for _, sp := range rec.Spans {
		parent[sp.ID] = sp.Parent
	}
	root := rec.Root().ID
	keep := map[obs.SpanID]bool{}
	for _, sp := range rec.Spans {
		if sp.Parent == root && sp.Name == "op solve" {
			keep[sp.ID] = len(keep) < n
		}
	}
	out := rec
	out.Spans = nil
	for _, sp := range rec.Spans {
		op := sp.ID
		for !op.IsZero() && parent[op] != root {
			op = parent[op]
		}
		if k, isSolve := keep[op]; !isSolve || k || op == sp.ID {
			out.Spans = append(out.Spans, sp)
		}
	}
	return out
}
