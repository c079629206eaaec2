package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/datalog"
	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/programs"
)

// instance is one seeded workload input. The engine only ever receives
// src (rules plus facts, as mdl reads a program file) and the fact
// batches in updates; the native forms stay on the benchmark side for
// the direct baselines and the oracles.
type instance struct {
	src string
	// check compares a solved model with the direct baseline.
	check func(m *datalog.Model) error
	// direct runs the direct baseline that computes the same answers on
	// the same input (the drift reference).
	direct func()
	// updates are one-fact insertions the program accepts as monotone
	// growth (SolveMore batches and asserted facts).
	updates []datalog.Fact
	// lookupPred/lookups are point lookups by the non-cost arguments of
	// a cost predicate; scanPred/scans bind the first argument of a
	// scan and leave the rest wild.
	lookupPred string
	lookups    [][]datalog.Value
	scanPred   string
	scans      [][]datalog.Value
}

func sym(prefix string, i int) datalog.Value { return datalog.Sym(prefix + strconv.Itoa(i)) }

// symIndex parses a generated constant such as "v17" back to 17.
func symIndex(v datalog.Value, prefix string) (int, error) {
	s, ok := v.Text()
	if !ok || !strings.HasPrefix(s, prefix) {
		return 0, fmt.Errorf("unexpected constant %s", v)
	}
	return strconv.Atoi(s[len(prefix):])
}

// The edge density and weight range of every shortest-path graph: a
// directed cycle through all n vertices plus 3n random chords, integer
// weights in [1, 9]. The cycle makes the whole graph one SCC.
const (
	graphDegree = 4
	graphMaxW   = 9
)

// graphInstance is Example 2.6 shortest path over gen.CycleGraph.
func graphInstance(n int, seed int64, nUpdates int) *instance {
	g := gen.Graph(gen.CycleGraph, n, graphDegree*n, graphMaxW, seed)
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	in := &instance{
		src:        programs.ShortestPath + gen.GraphFacts(g),
		check:      func(m *datalog.Model) error { return checkShortestPaths(m, baseline.AllPairs(g)) },
		direct:     func() { baseline.AllPairs(g) },
		lookupPred: "s",
		scanPred:   "s",
	}
	for i := 0; i < nUpdates; i++ {
		u, v := r.Intn(n), r.Intn(n)
		in.updates = append(in.updates, datalog.NewFact("arc", sym("v", u), sym("v", v), datalog.Num(float64(1+r.Intn(graphMaxW)))))
	}
	for i := 0; i < 256; i++ {
		in.lookups = append(in.lookups, []datalog.Value{sym("v", r.Intn(n)), sym("v", r.Intn(n))})
	}
	for i := 0; i < 64; i++ {
		in.scans = append(in.scans, []datalog.Value{sym("v", r.Intn(n)), datalog.Any()})
	}
	return in
}

// checkShortestPaths compares s/3 with all-pairs Dijkstra: the same
// pairs, the same distances.
func checkShortestPaths(m *datalog.Model, dist [][]float64) error {
	want := 0
	for _, row := range dist {
		for _, d := range row {
			if !math.IsInf(d, 1) {
				want++
			}
		}
	}
	rows := m.Facts("s")
	if len(rows) != want {
		return fmt.Errorf("s/3 has %d tuples, all-pairs Dijkstra has %d finite distances", len(rows), want)
	}
	for _, row := range rows {
		x, err := symIndex(row[0], "v")
		if err != nil {
			return err
		}
		y, err := symIndex(row[1], "v")
		if err != nil {
			return err
		}
		c, _ := row[2].Float()
		if c != dist[x][y] {
			return fmt.Errorf("s(v%d, v%d) = %g, Dijkstra says %g", x, y, c, dist[x][y])
		}
	}
	return nil
}

// Per-example generator parameters of the aggregate workload: party
// invitees know five others and need up to three; companies have up to
// three owners with cyclic holdings; a fifth of the circuit's nodes are
// inputs, gates have fan-in up to three and may feed back.
const (
	partyDegree  = 5
	partyMaxReq  = 3
	ownersFanIn  = 3
	circuitFanIn = 3
)

// aggregateInstance joins Party (count, Example 4.3), Company Control
// (sum, Example 2.7) and Circuit (and/or with default values, Example
// 4.4) into one program text: three independent component chains.
func aggregateInstance(n int, seed int64, nUpdates int) *instance {
	party := gen.Party(n, partyDegree, partyMaxReq, seed)
	own := gen.Ownership(n, ownersFanIn, true, seed+1)
	circ := gen.Circuit(n, n/5, circuitFanIn, true, seed+2)
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	in := &instance{
		src: programs.Party + programs.CompanyControl + programs.Circuit +
			gen.PartyFacts(party) + gen.OwnershipFacts(own) + gen.CircuitFacts(circ),
		check: func(m *datalog.Model) error {
			controls, _ := baseline.CompanyControl(own)
			return checkAggregates(m, party.Attendance(), controls, circ.Eval())
		},
		direct: func() {
			baseline.CompanyControl(own)
			party.Attendance()
			circ.Eval()
		},
		lookupPred: "t",
		scanPred:   "m",
	}
	for i := 0; i < nUpdates; i++ {
		in.updates = append(in.updates, datalog.NewFact("knows", sym("g", r.Intn(n)), sym("g", r.Intn(n))))
	}
	for i := 0; i < 256; i++ {
		in.lookups = append(in.lookups, []datalog.Value{sym("n", r.Intn(n))})
	}
	for i := 0; i < 64; i++ {
		in.scans = append(in.scans, []datalog.Value{sym("c", r.Intn(n)), datalog.Any()})
	}
	return in
}

// checkAggregates compares coming/1, c/2 and t/2 with the direct
// propagation, the direct company-control iteration and the circuit
// simulator.
func checkAggregates(m *datalog.Model, coming []bool, controls [][]bool, wires []bool) error {
	for x, want := range coming {
		if got := m.Has("coming", sym("g", x)); got != want {
			return fmt.Errorf("coming(g%d) = %v, direct propagation says %v", x, got, want)
		}
	}
	for x := range controls {
		for y, want := range controls[x] {
			if x == y {
				continue
			}
			if got := m.Has("c", sym("c", x), sym("c", y)); got != want {
				return fmt.Errorf("c(c%d, c%d) = %v, direct iteration says %v", x, y, got, want)
			}
		}
	}
	for i, want := range wires {
		v, _ := m.Cost("t", sym("n", i))
		got, _ := v.Truth()
		if got != want {
			return fmt.Errorf("t(n%d) = %v, circuit simulator says %v", i, got, want)
		}
	}
	return nil
}
