package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const exampleDir = "../../examples/programs"

// TestLedgerAtEveryParallelism solves every shipped example program
// (omega.mdl diverges by design) at parallelism 1, 2 and 4 under both
// strategies and both planners. Each component runs the one sequential
// fixpoint loop wherever it is scheduled, so at every level the
// per-rule and per-component Stats must sum to the totals, the last
// operator's rows-out must equal the rule's firings, and the operator
// counters must equal the parallelism-1 counters exactly.
func TestLedgerAtEveryParallelism(t *testing.T) {
	entries, err := os.ReadDir(exampleDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasSuffix(name, ".mdl") || name == "omega.mdl" {
			continue
		}
		src, err := os.ReadFile(filepath.Join(exampleDir, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []Strategy{SemiNaive, Naive} {
			for _, pl := range []Plan{PlanSyntactic, PlanCost} {
				t.Run(fmt.Sprintf("%s/strategy=%d/%s", name, strat, pl), func(t *testing.T) {
					var want string
					for _, par := range []int{1, 2, 4} {
						got := ledgerAt(t, string(src), Options{Strategy: strat, WFSFallback: true,
							Profile: true, Limits: Limits{Executor: ExecutorStream, Plan: pl, Parallelism: par}})
						if par == 1 {
							want = got
						} else if got != want {
							t.Fatalf("parallelism %d operator counters differ:\n%s\nwant:\n%s", par, got, want)
						}
					}
				})
			}
		}
	}
}

// ledgerAt solves src once, checks the Stats and profile invariants,
// and returns the operator counters rendered for comparison.
func ledgerAt(t *testing.T, src string, opts Options) string {
	t.Helper()
	en := mustEngine(t, src, opts)
	_, st, err := en.Solve(nil)
	if err != nil {
		t.Fatalf("parallelism %d: %v", opts.Parallelism, err)
	}
	var rf, rd, rp int64
	for _, r := range st.Rules {
		rf, rd, rp = rf+r.Firings, rd+r.Derived, rp+r.Probes
	}
	if rf != st.Firings || rd != st.Derived || rp != st.Probes {
		t.Fatalf("parallelism %d: per-rule sums firings=%d derived=%d probes=%d != totals %d/%d/%d",
			opts.Parallelism, rf, rd, rp, st.Firings, st.Derived, st.Probes)
	}
	var cr int
	var cf, cd, cp int64
	for _, c := range st.Comps {
		cr, cf, cd, cp = cr+c.Rounds, cf+c.Firings, cd+c.Derived, cp+c.Probes
	}
	if cr != st.Rounds || cf != st.Firings || cd != st.Derived || cp != st.Probes {
		t.Fatalf("parallelism %d: per-component sums rounds=%d firings=%d derived=%d probes=%d != totals %d/%d/%d/%d",
			opts.Parallelism, cr, cf, cd, cp, st.Rounds, st.Firings, st.Derived, st.Probes)
	}
	prof := en.Profile()
	var b strings.Builder
	for _, rule := range prof.Rules {
		// Ops are in canonical order; under the cost planner the
		// pipeline's last operator is the last entry of PlanOrder.
		last := len(rule.Ops) - 1
		if n := len(rule.PlanOrder); n > 0 {
			last = rule.PlanOrder[n-1]
		}
		if last >= 0 {
			if out, fir := rule.Ops[last].Out, st.Rules[rule.Index].Firings; out != fir {
				t.Fatalf("parallelism %d: rule %d last operator out=%d != firings=%d",
					opts.Parallelism, rule.Index, out, fir)
			}
		}
		fmt.Fprintf(&b, "%+v\n", rule)
	}
	return b.String()
}

// TestSchedulerRunsEachComponentOnce: a component whose only
// dependencies are rule-less EDB predicates becomes ready while the
// scheduler settles those at start-up; it must still be evaluated once,
// so the Stats equal the sequential engine's.
func TestSchedulerRunsEachComponentOnce(t *testing.T) {
	src := "q(X) :- e(X).\nr(X) :- q(X), f(X).\n"
	edb := mustEngine(t, "e(a). e(b). f(a).\n", Options{})
	facts, _, err := edb.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, par := range []int{1, 2, 4} {
		en := mustEngine(t, src, Options{Limits: Limits{Parallelism: par}})
		_, st, err := en.Solve(facts)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		for i := range st.Rules {
			st.Rules[i].Nanos = 0
		}
		for i := range st.Comps {
			st.Comps[i].Nanos = 0
		}
		got := fmt.Sprintf("%+v", st)
		if par == 1 {
			want = got
		} else if got != want {
			t.Fatalf("parallelism %d stats:\n%s\nwant:\n%s", par, got, want)
		}
	}
}
