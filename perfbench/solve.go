package main

import (
	"fmt"
	"io"
	"time"

	"repro/datalog"
	"repro/internal/obs"
)

// shape is a workload's input size: k instances of size n per run. A
// run cycles through all k, so its medians average over inputs: at
// Parallelism 2 one random graph can take half as long again to solve
// as another with the same amount of derived work.
type shape struct{ n, k, smallN int }

// solve-recursive keeps Example 2.6 on strongly connected graphs, so a
// solve is dominated by per-derived-tuple work in one recursive
// component; solve-aggregates makes static analysis a large share of
// Load and gives the scheduler three independent component chains;
// serve-mixed serves models large next to a one-arc delta.
var shapes = map[string]shape{
	solveRecursive:  {n: 64, k: 8, smallN: 16},
	solveAggregates: {n: 384, k: 4, smallN: 32},
	serveMixed:      {n: 64, k: 4, smallN: 16},
}

const (
	// setupReps is how often a solve run loads each instance; setup_s
	// is the median over all loads.
	setupReps = 3
	// updatesPerRun bounds the one-fact batches a run can insert into
	// one instance.
	updatesPerRun = 4096
)

// newInstances derives the run's inputs from its seed.
func newInstances(cfg config) []*instance {
	sh := shapes[cfg.workload]
	n, k := sh.n, sh.k
	if cfg.small {
		n, k = sh.smallN, 2
	}
	out := make([]*instance, k)
	for i := range out {
		seed := cfg.seed*1000 + int64(i)
		if cfg.workload == solveAggregates {
			out[i] = aggregateInstance(n, seed, updatesPerRun)
		} else {
			out[i] = graphInstance(n, seed, updatesPerRun)
		}
	}
	return out
}

// reference is what every solve of one instance must reproduce: the
// engine's work counters and the model's size.
type reference struct {
	stats datalog.Stats
	facts int
}

func (a reference) same(b reference) bool {
	return a.stats.Rounds == b.stats.Rounds && a.stats.Firings == b.stats.Firings &&
		a.stats.Derived == b.stats.Derived && a.stats.Probes == b.stats.Probes && a.facts == b.facts
}

// solvePhase is one closed loop of solves.
type solvePhase struct {
	solve         samples
	ops           int
	before, after runtimeSnap
}

// solveOnce times one Program.Solve from scratch.
func solveOnce(p *datalog.Program, t *tracer, sink *switchSink, ph *solvePhase) (*datalog.Model, reference, error) {
	var ref reference
	var m *datalog.Model
	var err error
	_, d := t.span("op solve", t.root(), func(op obs.SpanID) {
		t.span("datalog.Solve", op, func(id obs.SpanID) {
			if sink != nil {
				sink.set(obs.NewSpanSink(t.tr, id))
			}
			m, ref.stats, err = p.Solve()
		})
	})
	ph.ops++
	if err != nil {
		return nil, ref, err
	}
	ph.solve.add(d)
	ref.facts = m.Size()
	return m, ref, nil
}

// solveLoop solves the instances round robin for dur. Every solve must
// reproduce its instance's reference; models are dropped at once, so
// the heap holds no more than a user's would.
func solveLoop(progs []*datalog.Program, want []reference, dur time.Duration, t *tracer, sink *switchSink, res *result) solvePhase {
	var ph solvePhase
	ph.before = readRuntime()
	for i, deadline := 0, time.Now().Add(dur); time.Now().Before(deadline); i++ {
		j := i % len(progs)
		_, got, err := solveOnce(progs[j], t, sink, &ph)
		switch {
		case err != nil:
			res.fail(1, "solve: %v", err)
		case !got.same(want[j]):
			res.fail(1, "instance %d: a solve gave %+v, the first gave %+v", j, got, want[j])
		}
	}
	ph.after = readRuntime()
	return ph
}

// warmUp solves every instance once, untimed; every later solve must
// reproduce what these did.
func warmUp(progs []*datalog.Program) ([]reference, error) {
	want := make([]reference, len(progs))
	for i, p := range progs {
		var ph solvePhase
		_, ref, err := solveOnce(p, nil, nil, &ph)
		if err != nil {
			return nil, err
		}
		want[i] = ref
	}
	return want, nil
}

// checkAll solves every instance once more, untimed, and checks the
// model against the direct baseline.
func checkAll(progs []*datalog.Program, insts []*instance, want []reference, res *result) {
	for i, in := range insts {
		var ph solvePhase
		m, ref, err := solveOnce(progs[i], nil, nil, &ph)
		res.attempted++
		switch {
		case err != nil:
			res.fail(1, "instance %d: %v", i, err)
		case !ref.same(want[i]):
			res.fail(1, "instance %d: a solve gave %+v, the first gave %+v", i, ref, want[i])
		default:
			if err := in.check(m); err != nil {
				res.fail(1, "instance %d oracle: %v", i, err)
			}
		}
	}
}

// loadAll loads every instance with the same options.
func loadAll(insts []*instance, opts datalog.Options) ([]*datalog.Program, error) {
	progs := make([]*datalog.Program, len(insts))
	for i, in := range insts {
		p, err := datalog.Load(in.src, opts)
		if err != nil {
			return nil, err
		}
		progs[i] = p
	}
	return progs, nil
}

func runSolve(w io.Writer, cfg config) (*result, error) {
	res := newResult()
	insts := newInstances(cfg)
	opts := datalog.Options{Parallelism: procs}

	// Warm-up, excluded from the samples and from setup_s: the first
	// Load and Solve of each instance.
	progs, err := loadAll(insts, opts)
	if err != nil {
		return nil, err
	}
	want, err := warmUp(progs)
	if err != nil {
		return nil, err
	}

	var loads []time.Duration
	for rep := 0; rep < setupReps; rep++ {
		for i, in := range insts {
			start := time.Now()
			if progs[i], err = datalog.Load(in.src, opts); err != nil {
				return nil, err
			}
			loads = append(loads, time.Since(start))
		}
	}
	res.metrics["setup_s"] = medianSeconds(loads)
	res.note("setup_s", fmt.Sprintf("median of %d loads", len(loads)))

	if cfg.traced {
		return res, traceSolve(w, cfg, insts, progs, want, res)
	}
	ph := solveLoop(progs, want, cfg.dur, nil, nil, res)
	res.attempted += ph.ops
	checkAll(progs, insts, want, res)
	res.metrics["solve_ms_p50"] = ph.solve.p50()
	res.metrics["solve_ms_p90"] = ph.solve.quantile(0.90)
	res.note("solve_ms_p50", fmt.Sprintf("%d samples", len(ph.solve)))
	res.note("solve_ms_p90", fmt.Sprintf("%d samples beyond", ph.solve.beyond(0.90)))
	res.metrics["alloc_mb_per_op"] = allocMBPerOp(ph.before, ph.after, ph.ops)
	res.metrics["peak_rss_mb"] = peakRSSMB()
	return res, nil
}

func allocMBPerOp(before, after runtimeSnap, ops int) float64 {
	return float64(after.totalAlloc-before.totalAlloc) / (1 << 20) / float64(max(ops, 1))
}

// traceSolve is the traced run of a solve workload: half the time
// untraced, half with benchmark spans and an obs.SpanSink on every
// solve, then the per-layer probes on the first instance.
func traceSolve(w io.Writer, cfg config, insts []*instance, progs []*datalog.Program, want []reference, res *result) error {
	plain := solveLoop(progs, want, cfg.dur/2, nil, nil, res)
	sink := &switchSink{}
	traced, err := loadAll(insts, datalog.Options{Parallelism: procs, Sink: sink})
	if err != nil {
		return err
	}
	t := newTracer(cfg.workload)
	tph := solveLoop(traced, want, cfg.dur/2, t, sink, res)
	res.attempted += plain.ops + tph.ops
	checkAll(progs, insts, want, res)
	res.metrics["trace.overhead_frac"] = tph.solve.p50()/plain.solve.p50() - 1
	res.metrics["runtime.gc_cpu_frac"] = (plain.after.gcCPU - plain.before.gcCPU) / (plain.after.allCPU - plain.before.allCPU)
	res.metrics["runtime.allocs_per_op"] = float64(plain.after.allocs-plain.before.allocs) / float64(max(plain.ops, 1))
	if err := probeLayers(insts[0], t, res); err != nil {
		return err
	}
	if err := probeServe(cfg, insts[:1], t, res); err != nil {
		return err
	}
	return finishTrace(w, cfg, t)
}
