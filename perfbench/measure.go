package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gapplydb/internal/coord"
	"gapplydb/internal/server"
)

// window is one measured stretch of a run.
type window struct {
	traced bool

	mu        sync.Mutex
	samples   []sample // completed requests
	attempted int
	failed    int
	errs      int // failures still to print in full

	wall       time.Duration
	aside      time.Duration // closed loop: time spent checking responses and fetching traces
	genLag     []float64     // open loop: ms the generator woke late
	insertTime time.Duration
	insertRows int64
	rebuildMS  []float64 // traced refresh: index rebuild cost per insert

	rt0, rt1   rtSnap
	srv0, srv1 serverSnap
	co0, co1   coord.Stats
}

func newWindow(traced bool) *window { return &window{traced: traced, errs: 5} }

// add records one attempted request: err is its failure, if any (an
// error, a refusal or a digest mismatch).
func (w *window) add(s sample, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.attempted++
	if err != nil {
		w.failed++
		if w.errs > 0 {
			w.errs--
			logf("request failed: %v", err)
		}
		return
	}
	w.samples = append(w.samples, s)
}

// reject turns the completed request seq into a failure: its response,
// checked after the window, was wrong.
func (w *window) reject(seq int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.failed++
	if w.errs > 0 {
		w.errs--
		logf("request failed: %v", err)
	}
	for i, s := range w.samples {
		if s.seq == seq {
			w.samples = append(w.samples[:i], w.samples[i+1:]...)
			break
		}
	}
}

// begin and end bracket the window: runtime, server and coordinator
// counters are read at both ends so the window reports deltas.
func (w *window) begin(e *env) {
	runtime.GC()
	w.srv0, w.co0 = readServer(e.srv), readCoord(e.co)
	w.rt0 = readRuntime()
}

func (w *window) end(e *env) {
	w.rt1 = readRuntime()
	w.srv1, w.co1 = readServer(e.srv), readCoord(e.co)
}

// runRequest sends one request, stops the clock, then checks the
// response and, when traced, fetches its trace.
func runRequest(ctx context.Context, t target, o op, seq int, w *window, chk func(op, *response) error, r *response, from time.Time) (sample, error) {
	s := sample{tmpl: o.tmpl, seq: seq}
	r.reset()
	err := t.do(ctx, o, w.traced, &s, r)
	done := time.Now()
	s.lat = done.Sub(from)
	if err == nil {
		err = chk(o, r)
	}
	if err == nil && w.traced {
		s.trace = t.traceOf(s.id)
	}
	w.add(s, err)
	w.mu.Lock()
	w.aside += time.Since(done)
	w.mu.Unlock()
	return s, err
}

// runClosed is a closed loop: one client sends its next request when the
// previous one completes, until the deadline or maxReq requests. The
// time the client spends checking responses is not part of the window's
// wall time, so throughput is that of the system measured.
func runClosed(ctx context.Context, e *env, gen *generator, w *window, dur time.Duration, maxReq int, chk *checker) {
	start := time.Now()
	deadline := start.Add(dur)
	r := &response{}
	t := e.targets[0]
	for n := 0; time.Now().Before(deadline) && (maxReq == 0 || n < maxReq); n++ {
		runRequest(ctx, t, gen.next(), n, w, chk.check, r, time.Now())
	}
	w.wall = time.Since(start) - w.aside
}

// runOpen is an open loop: requests arrive on a seeded Poisson schedule
// at rate per second, whatever the server's progress, and are served by
// one worker per connection in arrival order. Latency counts from the
// moment a request was due, so a stall also charges the requests queued
// behind it.
func runOpen(ctx context.Context, e *env, gen *generator, seed int64, rate float64, w *window, dur time.Duration, maxReq int, want map[string]string) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var due []time.Duration
	var ops []op
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur || (maxReq > 0 && len(due) == maxReq) {
			break
		}
		due = append(due, t)
		ops = append(ops, gen.next())
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, t := range e.targets {
		wg.Add(1)
		go func(t target) {
			defer wg.Done()
			chk := newChecker(want)
			r := &response{}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				if d := time.Until(at); d > 0 {
					time.Sleep(d)
					lag := time.Since(at)
					w.mu.Lock()
					w.genLag = append(w.genLag, ms(lag))
					w.mu.Unlock()
				}
				runRequest(ctx, t, ops[i], i, w, chk.check, r, at)
			}
		}(t)
	}
	wg.Wait()
	w.wall = time.Since(start)
	if w.wall < dur && maxReq == 0 {
		w.wall = dur
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile is the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.lat)
	}
	return out
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// rtSnap is a reading of the Go runtime's own metrics.
type rtSnap struct {
	allocBytes, gcCPU, totalCPU, gcCycles float64
	sched                                 *metrics.Float64Histogram
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return rtSnap{
		allocBytes: num(s[0].Value), gcCPU: num(s[1].Value), totalCPU: num(s[2].Value),
		gcCycles: num(s[3].Value), sched: s[4].Value.Float64Histogram(),
	}
}

// liveHeapMB forces a collection and reads the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// schedP99 is the 99th percentile of goroutine scheduling latency over
// the window, in µs: high values flag a noisy shared machine.
func schedP99(a, b *metrics.Float64Histogram) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	d := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		d[i] = b.Counts[i] - a.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range d {
		cum += c
		if cum >= target {
			hi := b.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = b.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}

// serverSnap is the part of a server's metrics the benchmark reads.
type serverSnap struct {
	admWait          time.Duration
	admCount         int64
	rejected         int64
	bytesOut, rowOut int64
}

func readServer(s *server.Server) serverSnap {
	if s == nil {
		return serverSnap{}
	}
	m := s.Metrics()
	h := m.Histograms["server_admission_wait"]
	return serverSnap{
		admWait: h.Sum, admCount: h.Count,
		rejected: m.Counters["server_queries_rejected"],
		bytesOut: m.Counters["server_bytes_streamed"],
		rowOut:   m.Counters["server_rows_streamed"],
	}
}

func readCoord(c *coord.Coordinator) coord.Stats {
	if c == nil {
		return coord.Stats{}
	}
	return c.Stats()
}

func logf(format string, args ...any) {
	os.Stderr.WriteString(time.Now().Format("15:04:05.000") + " " + fmt.Sprintf(format, args...) + "\n")
}
