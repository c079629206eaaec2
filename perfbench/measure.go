package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// samples collects per-operation latencies in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }

// quantile returns the q-quantile (0 < q < 1) by linear interpolation
// between closest ranks; NaN when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s samples) p50() float64 { return s.quantile(0.50) }

// beyond reports how many samples lie strictly above the q-quantile,
// the support the guide asks a reported tail percentile to have.
func (s samples) beyond(q float64) int {
	t := s.quantile(q)
	n := 0
	for _, v := range s {
		if v > t {
			n++
		}
	}
	return n
}

// median of durations, in seconds.
func medianSeconds(ds []time.Duration) float64 {
	var s samples
	for _, d := range ds {
		s.add(d)
	}
	return s.p50() / 1e3
}

// peakRSSMB reads VmHWM, the resident-set high-water mark of this
// process, from /proc/self/status.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return math.NaN()
}

// runtimeSnap is a point-in-time reading of the runtime counters the
// per-op and per-layer metrics are deltas of.
type runtimeSnap struct {
	totalAlloc uint64  // bytes ever allocated on the heap
	allocs     uint64  // heap objects ever allocated
	gcCPU      float64 // CPU seconds spent in the GC
	allCPU     float64 // CPU seconds available to the process so far
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readRuntime reads the counters after a GC, which brings the CPU-time
// classes up to date; callers read it outside timed operations.
func readRuntime() runtimeSnap {
	runtime.GC()
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return runtimeSnap{
		totalAlloc: s[0].Value.Uint64(),
		allocs:     s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		allCPU:     s[3].Value.Float64(),
	}
}

// liveHeap returns the heap bytes still reachable after a full GC.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
