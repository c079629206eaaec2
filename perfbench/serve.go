package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/datalog"
	"repro/internal/server"
)

// The serve-mixed traffic: one client process with two connections,
// one for reads and one for writes, sending on a fixed open-loop
// schedule to the run's programs, all served by one server. At 60
// arrivals per second about 3 one-arc asserts per second reach the
// committers, each commit taking about 15 ms on two CPUs, so they are
// busy well under half the time.
const (
	serveRate   = 60.0
	assertShare = 0.05
	scanShare   = 0.10
	// serveSetupReps is how often serve-mixed starts its server;
	// setup_s is the median.
	serveSetupReps = 3
	// probeServeTime is the length of the short serving phase the traced
	// run of a solve workload measures the commit path with.
	probeServeTime = 3 * time.Second
	// traceBuffer holds every request trace of a traced run.
	traceBuffer = 1 << 14
)

// progName names the i-th served program.
func progName(i int) string { return "bench" + strconv.Itoa(i) }

// encodeValue writes the server's JSON wire form of the constants the
// workloads use: symbols as strings, numbers bare, Any as null.
func encodeValue(b *bytes.Buffer, v datalog.Value) {
	switch v.Kind() {
	case datalog.AnyValue:
		b.WriteString("null")
	case datalog.NumValue:
		f, _ := v.Float()
		b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
	case datalog.BoolValue:
		t, _ := v.Truth()
		b.WriteString(strconv.FormatBool(t))
	default:
		s, _ := v.Text()
		enc, _ := json.Marshal(s)
		b.Write(enc)
	}
}

func encodeArgs(b *bytes.Buffer, args []datalog.Value) {
	b.WriteByte('[')
	for i, a := range args {
		if i > 0 {
			b.WriteByte(',')
		}
		encodeValue(b, a)
	}
	b.WriteByte(']')
}

func queryBody(prog int, op, pred string, args []datalog.Value) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"program":%q,"op":%q,"pred":%q,"args":`, progName(prog), op, pred)
	encodeArgs(&b, args)
	b.WriteByte('}')
	return b.Bytes()
}

func assertBody(prog int, f datalog.Fact) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"program":%q,"facts":[{"pred":%q,"args":`, progName(prog), f.Pred)
	encodeArgs(&b, f.Args)
	b.WriteString(`}]}`)
	return b.Bytes()
}

func specs(insts []*instance) []server.ProgramSpec {
	out := make([]server.ProgramSpec, len(insts))
	for i, in := range insts {
		out[i] = server.ProgramSpec{Name: progName(i), Source: in.src, Options: datalog.Options{Parallelism: procs}}
	}
	return out
}

// live is a server answering on a 127.0.0.1 listener.
type live struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{}
}

// startLive is what a user of mdl serve waits for: server.New,
// Materialize (solve, or warm start and WAL replay), and the listener
// answering its first request.
func startLive(insts []*instance, walDir string, traceBuf int) (*live, error) {
	srv, err := server.New(specs(insts), server.Config{WALDir: walDir, WALFsync: server.FsyncBatch, TraceBuffer: traceBuf})
	if err != nil {
		return nil, err
	}
	if err := srv.Materialize(context.Background()); err != nil {
		srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	l := &live{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get(l.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return l, nil
			}
		}
		select {
		case <-l.done:
			srv.Close()
			return nil, fmt.Errorf("server stopped before it was ready: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
}

// stop closes the listener, lets every queued commit finish, and
// closes the WAL.
func (l *live) stop() {
	_ = l.hs.Close()
	<-l.done
	l.srv.Drain(30 * time.Second)
	l.srv.Close()
}

func (l *live) get(path string) ([]byte, error) {
	resp, err := http.Get(l.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, err
}

type opKind int

const (
	opQuery opKind = iota
	opScan
	opAssert
)

func (k opKind) String() string { return [...]string{"query", "scan", "assert"}[k] }

// plannedOp is one scheduled request: its kind, when it is due after
// the start of the phase, the program it goes to, and which lookup,
// scan or update of that program's instance it sends.
type plannedOp struct {
	kind opKind
	due  time.Duration
	prog int
	key  int
}

// planTraffic fixes a phase's schedule from the seed: arrivals every
// 1/rate seconds, each a query, scan or assert drawn at the workload's
// shares, to a program drawn uniformly. Asserts send each program's
// updates in order from firstUpdate on. maxOps > 0 caps the count
// regardless of duration.
func planTraffic(insts []*instance, seed int64, rate float64, dur time.Duration, maxOps, firstUpdate int) (reads, writes []plannedOp) {
	r := rand.New(rand.NewSource(seed ^ 0x7aff1c))
	interval := time.Duration(float64(time.Second) / rate)
	next := make([]int, len(insts))
	for i := range next {
		next[i] = firstUpdate
	}
	for i := 0; ; i++ {
		due := time.Duration(i) * interval
		if due >= dur || (maxOps > 0 && i >= maxOps) {
			return reads, writes
		}
		p := r.Intn(len(insts))
		in := insts[p]
		switch x := r.Float64(); {
		case x < assertShare:
			writes = append(writes, plannedOp{opAssert, due, p, next[p] % len(in.updates)})
			next[p]++
		case x < assertShare+scanShare:
			reads = append(reads, plannedOp{opScan, due, p, r.Intn(len(in.scans))})
		default:
			reads = append(reads, plannedOp{opQuery, due, p, r.Intn(len(in.lookups))})
		}
	}
}

// traffic is what one phase of requests observed.
type traffic struct {
	mu                  sync.Mutex
	query, scan, assert samples
	late                samples
	sent, failed        int
	problems            []string
	costs               []answer // answered cost per lookup
	counts              []answer // answered row count per scan
	acked               []answer // acked update (value unused)
}

type answer struct {
	prog, key int
	value     float64
}

func (tr *traffic) problem(format string, args ...any) {
	tr.failed++
	if len(tr.problems) < 8 {
		tr.problems = append(tr.problems, fmt.Sprintf(format, args...))
	}
}

// ackedFacts returns the facts acked for one program.
func (tr *traffic) ackedFacts(insts []*instance, prog int) []datalog.Fact {
	var out []datalog.Fact
	for _, a := range tr.acked {
		if a.prog == prog {
			out = append(out, insts[prog].updates[a.key])
		}
	}
	return out
}

// runTraffic sends both schedules, each on its own connection, and
// waits for the last answer.
func runTraffic(base string, insts []*instance, reads, writes []plannedOp, t *tracer) *traffic {
	tr := &traffic{}
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for _, ops := range [][]plannedOp{reads, writes} {
		wg.Add(1)
		go func(ops []plannedOp) {
			defer wg.Done()
			sendAll(base, insts, ops, start, t, tr)
		}(ops)
	}
	wg.Wait()
	return tr
}

// sendAll sends one connection's schedule. A request is timed from
// when it was due if the connection was still busy with the previous
// answer then — the wait a slow answer imposes on the next request —
// and otherwise from when it was sent, so a timer's slack (a sleep
// overshoots by up to a millisecond on Linux) is reported as
// lateness of the generator rather than as latency of the server.
func sendAll(base string, insts []*instance, ops []plannedOp, start time.Time, t *tracer, tr *traffic) {
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
	defer client.CloseIdleConnections()
	var free time.Time // when the previous answer arrived
	for _, op := range ops {
		in := insts[op.prog]
		due := start.Add(op.due)
		time.Sleep(time.Until(due))
		sent := time.Now()
		origin, ready := sent, due
		if free.After(due) {
			origin, ready = due, free
		}
		var path string
		var body []byte
		switch op.kind {
		case opQuery:
			path, body = "/v1/query", queryBody(op.prog, "cost", in.lookupPred, in.lookups[op.key])
		case opScan:
			path, body = "/v1/query", queryBody(op.prog, "facts", in.scanPred, in.scans[op.key])
		case opAssert:
			path, body = "/v1/assert", assertBody(op.prog, in.updates[op.key])
		}
		status, reply, err := post(client, base+path, body)
		done := time.Now()
		free = done
		if t != nil {
			id := t.tr.RecordSpan("op "+op.kind.String(), t.root(), origin, done)
			t.record("http.POST "+path, id, sent, done)
		}
		tr.record(op, status, reply, err, sent.Sub(ready), done.Sub(origin))
	}
}

func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}

// record files one answered request: its latency from the scheduled
// send, and what it answered, for the oracles.
func (tr *traffic) record(op plannedOp, status int, reply []byte, err error, late, latency time.Duration) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.sent++
	tr.late.add(late)
	switch {
	case err != nil:
		tr.problem("%s: %v", op.kind, err)
		return
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		tr.problem("%s shed with status %d", op.kind, status)
		return
	case status != http.StatusOK:
		tr.problem("%s: status %d: %s", op.kind, status, reply)
		return
	}
	switch op.kind {
	case opQuery:
		var r struct {
			Found bool            `json:"found"`
			Cost  json.RawMessage `json:"cost"`
		}
		if err := json.Unmarshal(reply, &r); err != nil || !r.Found {
			tr.problem("query %d/%d: found=%v %v", op.prog, op.key, r.Found, err)
			return
		}
		c, err := decodeNumber(r.Cost)
		if err != nil {
			tr.problem("query %d/%d: %v", op.prog, op.key, err)
			return
		}
		tr.query.add(latency)
		tr.costs = append(tr.costs, answer{op.prog, op.key, c})
	case opScan:
		var r struct {
			Count int `json:"count"`
		}
		if err := json.Unmarshal(reply, &r); err != nil {
			tr.problem("scan %d/%d: %v", op.prog, op.key, err)
			return
		}
		tr.scan.add(latency)
		tr.counts = append(tr.counts, answer{op.prog, op.key, float64(r.Count)})
	case opAssert:
		tr.assert.add(latency)
		tr.acked = append(tr.acked, answer{op.prog, op.key, 0})
	}
}

// decodeNumber reads a wire number, including the {"num":"inf"} form.
// Booleans (the cost of t/2 in the aggregate programs) read as 0 and 1.
func decodeNumber(raw json.RawMessage) (float64, error) {
	var f float64
	if err := json.Unmarshal(raw, &f); err == nil {
		return f, nil
	}
	var b bool
	if err := json.Unmarshal(raw, &b); err == nil {
		if b {
			return 1, nil
		}
		return 0, nil
	}
	var o struct {
		Num string `json:"num"`
	}
	if err := json.Unmarshal(raw, &o); err != nil {
		return 0, fmt.Errorf("not a number: %s", raw)
	}
	switch o.Num {
	case "inf":
		return math.Inf(1), nil
	case "-inf":
		return math.Inf(-1), nil
	}
	return 0, fmt.Errorf("not a number: %s", raw)
}

// merge folds the second phase of a traced run into the first.
func (tr *traffic) merge(o *traffic) {
	tr.query = append(tr.query, o.query...)
	tr.scan = append(tr.scan, o.scan...)
	tr.assert = append(tr.assert, o.assert...)
	tr.late = append(tr.late, o.late...)
	tr.sent += o.sent
	tr.failed += o.failed
	tr.problems = append(tr.problems, o.problems...)
	tr.costs = append(tr.costs, o.costs...)
	tr.counts = append(tr.counts, o.counts...)
	tr.acked = append(tr.acked, o.acked...)
}

func runServe(w io.Writer, cfg config) (*result, error) {
	res := newResult()
	insts := newInstances(cfg)
	progs, err := loadAll(insts, datalog.Options{Parallelism: procs})
	if err != nil {
		return nil, err
	}
	initial := make([]*datalog.Model, len(insts))
	for i, in := range insts {
		if initial[i], _, err = progs[i].Solve(); err != nil {
			return nil, err
		}
		res.attempted++
		if err := in.check(initial[i]); err != nil {
			res.fail(1, "instance %d oracle: %v", i, err)
		}
	}

	walRoot := filepath.Join(cfg.dir, fmt.Sprintf("wal-%d", os.Getpid()))
	defer os.RemoveAll(walRoot)
	buf := 0
	if cfg.traced {
		buf = traceBuffer
	}
	// Warm-up, excluded from the samples and from setup_s: one server
	// start and a few reads.
	warm, err := startLive(insts, filepath.Join(walRoot, "warmup"), buf)
	if err != nil {
		return nil, err
	}
	wr, _ := planTraffic(insts, cfg.seed, 1000, time.Second, 50, 0)
	runTraffic(warm.base, insts, wr, nil, nil)
	warm.stop()

	var setups []time.Duration
	var l *live
	for i := 0; i < serveSetupReps; i++ {
		if l != nil {
			l.stop()
		}
		start := time.Now()
		if l, err = startLive(insts, filepath.Join(walRoot, strconv.Itoa(i)), buf); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
	}
	walDir := filepath.Join(walRoot, strconv.Itoa(serveSetupReps-1))
	res.metrics["setup_s"] = medianSeconds(setups)
	res.note("setup_s", fmt.Sprintf("median of %d starts", serveSetupReps))

	maxOps := 0
	if cfg.small {
		maxOps = 200
	}
	var tr *traffic
	var before, after runtimeSnap
	var t *tracer
	if !cfg.traced {
		reads, writes := planTraffic(insts, cfg.seed, serveRate, cfg.dur, maxOps, 0)
		before = readRuntime()
		tr = runTraffic(l.base, insts, reads, writes, nil)
		after = readRuntime()
	} else {
		// Half the time untraced, half with benchmark spans on every
		// request; the server records its own spans throughout.
		reads, writes := planTraffic(insts, cfg.seed, serveRate, cfg.dur/2, maxOps, 0)
		before = readRuntime()
		tr = runTraffic(l.base, insts, reads, writes, nil)
		after = readRuntime()
		t = newTracer(cfg.workload)
		reads2, writes2 := planTraffic(insts, cfg.seed+1, serveRate, cfg.dur/2, maxOps, len(writes))
		tr2 := runTraffic(l.base, insts, reads2, writes2, t)
		res.metrics["trace.overhead_frac"] = tr2.assert.p50()/tr.assert.p50() - 1
		tr.merge(tr2)
	}
	res.attempted += tr.sent
	res.failed += tr.failed
	res.problems = append(res.problems, tr.problems...)
	if !cfg.traced {
		for _, c := range []struct {
			name string
			s    samples
			q    float64
		}{{"query", tr.query, 0.99}, {"scan", tr.scan, 0.90}, {"assert", tr.assert, 0.90}} {
			tail := fmt.Sprintf("%s_ms_p%.0f", c.name, c.q*100)
			res.metrics[c.name+"_ms_p50"] = c.s.p50()
			res.metrics[tail] = c.s.quantile(c.q)
			res.note(c.name+"_ms_p50", fmt.Sprintf("%d samples", len(c.s)))
			res.note(tail, fmt.Sprintf("%d samples beyond", c.s.beyond(c.q)))
		}
		res.note("query_ms_p99", fmt.Sprintf("%s; sends ran up to %.3f ms late (p99)", res.notes["query_ms_p99"], tr.late.quantile(0.99)))
		res.metrics["alloc_mb_per_op"] = allocMBPerOp(before, after, tr.sent)
		res.metrics["peak_rss_mb"] = peakRSSMB()
	} else {
		res.metrics["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / (after.allCPU - before.allCPU)
		res.metrics["runtime.allocs_per_op"] = float64(after.allocs-before.allocs) / float64(max(tr.sent, 1))
		if err := collectServer(l, tr, res); err != nil {
			return nil, err
		}
	}

	final := make([]*datalog.Model, len(insts))
	for i := range insts {
		if final[i], _, err = progs[i].Solve(tr.ackedFacts(insts, i)...); err != nil {
			return nil, err
		}
	}
	checkServed(res, l.base, insts, tr, initial, final)
	l.stop()
	checkDurable(res, insts, progs, walDir, tr, final)

	if cfg.traced {
		if err := probeLayers(insts[0], t, res); err != nil {
			return nil, err
		}
		return res, finishTrace(w, cfg, t)
	}
	return res, nil
}

// collectServer reads the commit path's spans from /debug/traces and
// its counters from /metrics.
func collectServer(l *live, tr *traffic, res *result) error {
	body, err := l.get("/debug/traces")
	if err != nil {
		return err
	}
	spans, err := commitSpans(bytes.NewReader(body))
	if err != nil {
		return err
	}
	res.metrics["server.queue_wait_ms_p50"] = spans["queue"].p50()
	res.metrics["server.commit_solve_ms_p50"] = spans["solve"].p50()
	res.metrics["server.publish_ms_p50"] = spans["publish"].p50()
	res.metrics["wal.append_ms_p50"] = spans["wal.append"].p50()
	res.metrics["wal.fsync_ms_p50"] = spans["wal.fsync"].p50()
	prom, err := l.get("/metrics")
	if err != nil {
		return err
	}
	res.metrics["server.commit_batch_mean"] = promSum(prom, "mdl_commit_batch_size_sum") / promSum(prom, "mdl_commit_batch_size_count")
	res.metrics["server.shed_frac"] = promSum(prom, "mdl_shed_total") / float64(max(tr.sent, 1))
	res.metrics["wal.records"] = promSum(prom, "mdl_commit_seq")
	res.metrics["wal.bytes_per_fact"] = promSum(prom, "mdl_wal_bytes_total") / float64(max(len(tr.acked), 1))
	res.metrics["loadgen.late_ms_p99"] = tr.late.quantile(0.99)
	return nil
}

// promSum adds up every series of one metric in a Prometheus text
// exposition.
func promSum(text []byte, name string) float64 {
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		if v, err := strconv.ParseFloat(rest[strings.LastIndexByte(rest, ' ')+1:], 64); err == nil {
			total += v
		}
	}
	return total
}

// probeServe is the traced run's short serving phase for a solve
// workload: the same load generator against a server of the
// workload's programs, so the commit path's layers are measured there
// too.
func probeServe(cfg config, insts []*instance, t *tracer, res *result) error {
	dir := filepath.Join(cfg.dir, fmt.Sprintf("wal-%d-probe", os.Getpid()))
	defer os.RemoveAll(dir)
	l, err := startLive(insts, dir, traceBuffer)
	if err != nil {
		return err
	}
	defer l.stop()
	reads, writes := planTraffic(insts, cfg.seed, serveRate, probeServeTime, 0, 0)
	tr := runTraffic(l.base, insts, reads, writes, t)
	res.attempted += tr.sent
	res.failed += tr.failed
	res.problems = append(res.problems, tr.problems...)
	return collectServer(l, tr, res)
}

// rowsOf renders a model's rows of one predicate in the server's wire
// form, one line per row, in the model's deterministic order.
func rowsOf(rows [][]datalog.Value) []string {
	out := make([]string, len(rows))
	var b bytes.Buffer
	for i, row := range rows {
		b.Reset()
		encodeArgs(&b, row)
		out[i] = b.String()
	}
	return out
}

// servedRows fetches every row of a predicate through op=facts.
func servedRows(base string, prog int, pred string) ([]string, error) {
	status, reply, err := post(http.DefaultClient, base+"/v1/query", queryBody(prog, "facts", pred, nil))
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("facts %s: status %d", pred, status)
	}
	var r struct {
		Rows []json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(reply, &r); err != nil {
		return nil, err
	}
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = string(row)
	}
	return out, nil
}

// sameModel compares every predicate a server publishes for one
// program with a model solved here.
func sameModel(base string, prog int, want *datalog.Model) error {
	for _, pred := range want.Preds() {
		got, err := servedRows(base, prog, pred)
		if err != nil {
			return err
		}
		rows := rowsOf(want.Facts(pred))
		if len(got) != len(rows) {
			return fmt.Errorf("%s has %d rows, want %d", pred, len(got), len(rows))
		}
		for i := range got {
			if got[i] != rows[i] {
				return fmt.Errorf("%s row %d is %s, want %s", pred, i, got[i], rows[i])
			}
		}
	}
	return nil
}

// checkServed runs the serve-mixed oracles on a live server: each final
// published model equals a one-shot solve over its EDB plus every
// acked fact, and no answer lies outside what monotone growth allows —
// a cost between the initial and the final model's (min lattice), a
// scan count between theirs.
func checkServed(res *result, base string, insts []*instance, tr *traffic, initial, final []*datalog.Model) {
	for i := range insts {
		if err := sameModel(base, i, final[i]); err != nil {
			res.fail(1, "program %d, final model: %v", i, err)
		}
	}
	for _, a := range tr.costs {
		in := insts[a.prog]
		k := in.lookups[a.key]
		lo, _ := final[a.prog].Cost(in.lookupPred, k...)
		hi, _ := initial[a.prog].Cost(in.lookupPred, k...)
		l, _ := lo.Float()
		h, _ := hi.Float()
		if a.value < l || a.value > h {
			res.fail(1, "program %d: cost %v answered %g, outside [%g, %g]", a.prog, k, a.value, l, h)
		}
	}
	for _, a := range tr.counts {
		in := insts[a.prog]
		k := in.scans[a.key]
		l, h := len(initial[a.prog].Match(in.scanPred, k...)), len(final[a.prog].Match(in.scanPred, k...))
		if a.value < float64(l) || a.value > float64(h) {
			res.fail(1, "program %d: scan %v answered %g rows, outside [%d, %d]", a.prog, k, a.value, l, h)
		}
	}
}

// checkDurable warm-starts a fresh server on the stopped server's WAL.
// Each model must equal the one-shot solve, and every acked fact must
// be in it; each one missing is a lost ack.
func checkDurable(res *result, insts []*instance, progs []*datalog.Program, walDir string, tr *traffic, final []*datalog.Model) {
	l, err := startLive(insts, walDir, 0)
	if err != nil {
		res.fail(max(len(tr.acked), 1), "warm start on the WAL: %v", err)
		return
	}
	defer l.stop()
	for i := range insts {
		if err := sameModel(l.base, i, final[i]); err != nil {
			res.fail(1, "program %d after restart: %v", i, err)
		}
	}
	lost := 0
	for _, a := range tr.acked {
		f := insts[a.prog].updates[a.key]
		if !present(l.base, a.prog, progs[a.prog], f) {
			lost++
		}
	}
	if lost > 0 {
		res.fail(lost, "%d of %d acked facts missing after restart", lost, len(tr.acked))
	}
}

// present asks a server whether a fact holds: for a cost predicate, a
// tuple with the same arguments at the fact's cost or better (min
// lattice).
func present(base string, prog int, p *datalog.Program, f datalog.Fact) bool {
	hasCost := false
	for _, d := range p.Predicates() {
		if d.Name == f.Pred {
			hasCost = d.HasCost
		}
	}
	op, args := "has", f.Args
	if hasCost {
		op, args = "cost", f.Args[:len(f.Args)-1]
	}
	status, reply, err := post(http.DefaultClient, base+"/v1/query", queryBody(prog, op, f.Pred, args))
	if err != nil || status != http.StatusOK {
		return false
	}
	var r struct {
		Found bool            `json:"found"`
		Cost  json.RawMessage `json:"cost"`
	}
	if json.Unmarshal(reply, &r) != nil || !r.Found {
		return false
	}
	if !hasCost {
		return true
	}
	got, err := decodeNumber(r.Cost)
	want, _ := f.Args[len(f.Args)-1].Float()
	return err == nil && got <= want
}
