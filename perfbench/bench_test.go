package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/programs"
)

// tracedSmall runs one workload's traced run on small inputs.
func tracedSmall(t *testing.T, workload string, seed int64) *result {
	t.Helper()
	cfg := config{workload: workload, seed: seed, dur: 2 * time.Second, traced: true, dir: t.TempDir(), small: true}
	res, err := runWorkload(io.Discard, cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if res.failed != 0 {
		t.Fatalf("%s: %d failed: %v", workload, res.failed, res.problems)
	}
	return res
}

// The count metrics are exact: for a fixed seed they repeat, run after
// run, and every per-layer metric is measured.
func TestCountMetricsRepeat(t *testing.T) {
	counts := []string{"core.rounds", "core.firings", "core.derived", "core.probes", "core.model_facts", "wal.records"}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			first := tracedSmall(t, w, 7)
			second := tracedSmall(t, w, 7)
			for _, d := range perLayer {
				v, ok := first.metrics[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s not measured: %v", d.name, v)
				}
			}
			for _, name := range counts {
				if first.metrics[name] <= 0 || first.metrics[name] != second.metrics[name] {
					t.Errorf("%s = %v, then %v", name, first.metrics[name], second.metrics[name])
				}
			}
		})
	}
}

func TestSeedChangesInputs(t *testing.T) {
	for _, w := range workloadNames {
		a := newInstances(config{workload: w, seed: 1})
		b := newInstances(config{workload: w, seed: 2})
		again := newInstances(config{workload: w, seed: 1})
		for i := range a {
			if a[i].src == b[i].src {
				t.Errorf("%s instance %d: seeds 1 and 2 give the same program text", w, i)
			}
			if a[i].src != again[i].src || !a[i].updates[0].Args[1].Equal(again[i].updates[0].Args[1]) {
				t.Errorf("%s instance %d: seed 1 gives different inputs on a second call", w, i)
			}
			if i > 0 && a[i].src == a[0].src {
				t.Errorf("%s: instances 0 and %d are the same", w, i)
			}
		}
	}
}

type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// Every metric the benchmark reports is the one BENCHMARK.json lists,
// and every per-layer metric names an end-to-end metric and workloads
// listed there.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{}
	for _, w := range bf.Workloads {
		workloads[w.Name] = true
	}
	for _, w := range []string{solveRecursive, solveAggregates} {
		if !workloads[w] {
			t.Errorf("workload %s is not in BENCHMARK.json", w)
		}
	}
	sameDefs := func(kind string, listed []benchMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	sameDefs("end_to_end", bf.EndToEnd, endToEnd)
	sameDefs("per_layer", bf.PerLayer, perLayer)
	// A per-layer metric moves an end-to-end metric of a gated workload,
	// or one of serve-mixed, which runs ungated.
	e2e := map[string]map[string]bool{}
	for _, w := range workloadNames {
		e2e[w] = map[string]bool{}
		for _, d := range reported(config{workload: w}) {
			if w == serveMixed || slices.ContainsFunc(bf.EndToEnd, func(m benchMetric) bool { return m.Name == d.name }) {
				e2e[w][d.name] = true
			}
		}
	}
	for _, d := range perLayer {
		if len(d.on) == 0 {
			t.Errorf("%s names no workload", d.name)
		}
		for _, w := range d.on {
			if !workloads[w] && w != serveMixed {
				t.Errorf("%s moves on %q, which is not a workload", d.name, w)
			} else if !e2e[w][d.moves] {
				t.Errorf("%s moves %q, which is not an end-to-end metric of %s", d.name, d.moves, w)
			}
		}
	}
}

// The static layers timed one by one add up to no more than the
// datalog.Load that runs them all.
func TestLoadPartsWithinLoad(t *testing.T) {
	src := programs.Party + programs.CompanyControl + programs.Circuit +
		gen.PartyFacts(gen.Party(128, partyDegree, partyMaxReq, 1)) +
		gen.OwnershipFacts(gen.Ownership(128, ownersFanIn, true, 2)) +
		gen.CircuitFacts(gen.Circuit(128, 128/5, circuitFanIn, true, 3))
	lp, err := measureLoadParts(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lp.sumParts() > lp.load {
		t.Errorf("parts take %.3f ms, datalog.Load %.3f ms", lp.sumParts(), lp.load)
	}
}
