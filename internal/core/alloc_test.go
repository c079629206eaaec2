package core

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/parser"
	"repro/internal/programs"
	"repro/internal/relation"
	"repro/internal/val"
)

// The inner-loop steps of the tuple interpreter that run once per join
// probe must not allocate: negSatisfied and the default-value point
// lookup both instantiate the atom's arguments into a per-step buffer
// (atomSpec.abuf), not a fresh slice. These assertions pin that — a
// regression here multiplies straight into allocs/op on every solve.

// allocHarness compiles a program with a negated subgoal and a
// default-value scan and returns the evaluator, the interesting steps
// and an environment with the shared variable bound.
func allocHarness(t *testing.T) (ev *evaluator, neg *negStep, def *scanStep, e *env) {
	t.Helper()
	prog, err := parser.Parse(`
.cost t/2 : minreal.
.default t/2 = inf.
p(X) :- q(X), not r(X).
s(X) :- q(X), t(X, C), C < 5.
`)
	if err != nil {
		t.Fatal(err)
	}
	en, err := New(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var nvars int
	for _, ps := range en.plans {
		for _, p := range ps {
			for _, st := range p.steps {
				switch s := st.(type) {
				case *negStep:
					neg, nvars = s, p.nvars
				case *scanStep:
					if s.pi.HasDefault {
						def, nvars = s, p.nvars
					}
				}
			}
		}
	}
	if neg == nil || def == nil {
		t.Fatal("harness program compiled without the expected steps")
	}
	db := relation.NewDB(en.Schemas)
	db.Rel(def.pred) // materialize so the first probe is steady state
	db.Rel(neg.pred).InsertJoin([]val.T{val.Symbol("a")}, lattice.Elem{})
	ev = &evaluator{db: db}
	e = newEnv(nvars)
	// Both plans order q first and use variable 0 for X; bind it as the
	// preceding scan would have.
	e.vals[0] = val.Symbol("a")
	e.bound[0] = true
	return ev, neg, def, e
}

func TestNegSatisfiedDoesNotAllocate(t *testing.T) {
	ev, neg, _, e := allocHarness(t)
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := ev.negSatisfied(&neg.atomSpec, e); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("negSatisfied allocates %.1f times per probe, want 0", avg)
	}
}

func TestDefaultValueScanDoesNotAllocate(t *testing.T) {
	ev, _, def, e := allocHarness(t)
	sink := func(relation.Row) error { return nil }
	// Once against the synthesized default row (relation miss) and once
	// against a stored row: neither path may allocate.
	for _, stored := range []bool{false, true} {
		if stored {
			ev.db.Rel(def.pred).InsertJoin([]val.T{val.Symbol("a")}, val.Number(2))
		}
		if avg := testing.AllocsPerRun(200, func() {
			if err := ev.scan(&def.atomSpec, e, sink); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("default-value scan (stored=%v) allocates %.1f times per probe, want 0", stored, avg)
		}
	}
}

// The component scheduler runs each component through the same
// sequential fixpoint loop as Parallelism 1, on a private view of the
// database. On a program with a single recursive component it therefore
// does the same work, and may only add the scheduler's fixed per-solve
// and per-component cost (worker goroutines, the private view). This
// pins that: evaluation at Parallelism 2 that buffers, copies or re-runs
// rule passes shows up here as a ratio well above 1.
func TestSchedulerAllocatesLikeSequential(t *testing.T) {
	g := gen.Graph(gen.CycleGraph, 48, 4*48, 9, 48)
	src := programs.ShortestPath + gen.GraphFacts(g)
	measure := func(par int) (allocs, bytes float64) {
		en := mustEngine(t, src, Options{Limits: Limits{Executor: ExecutorStream, Parallelism: par}})
		solve := func() {
			if _, _, err := en.Solve(nil); err != nil {
				t.Fatal(err)
			}
		}
		solve() // warm the engine's per-plan scratch
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			solve()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	seqAllocs, seqBytes := measure(1)
	parAllocs, parBytes := measure(2)
	t.Logf("par=1: %.0f allocs, %.0f B; par=2: %.0f allocs, %.0f B", seqAllocs, seqBytes, parAllocs, parBytes)
	const tol = 1.03
	if parAllocs > tol*seqAllocs {
		t.Errorf("Parallelism 2 allocates %.0f times per solve vs %.0f at Parallelism 1 (ratio %.3f > %.2f)",
			parAllocs, seqAllocs, parAllocs/seqAllocs, tol)
	}
	if parBytes > tol*seqBytes {
		t.Errorf("Parallelism 2 allocates %.0f B per solve vs %.0f B at Parallelism 1 (ratio %.3f > %.2f)",
			parBytes, seqBytes, parBytes/seqBytes, tol)
	}
}
