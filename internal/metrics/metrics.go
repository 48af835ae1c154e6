// Package metrics is a small, dependency-free metrics layer for the
// engine: atomic counters and fixed-bucket latency histograms collected
// into a registry, with a text renderer for the shell's \metrics command
// and an optional expvar publisher for scraping.
//
// Everything is safe for concurrent use: recording is lock-free
// (sync/atomic), and Snapshot takes a consistent-enough point-in-time
// copy for reporting (individual values are atomically read; the set of
// instruments is guarded by a mutex).
package metrics

import (
	"encoding/json"
	"expvar"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic tally.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be any delta; the engine only adds non-negatives).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current tally.
func (c *Counter) Value() int64 { return c.v.Load() }

// DefaultLatencyBuckets are the upper bounds the engine's latency
// histograms use: decades from 100µs to 10s, plus the implicit +Inf.
var DefaultLatencyBuckets = []time.Duration{
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// FineLatencyBuckets is a 1-2-5 grid from 50µs to 10s — the resolution
// latency percentiles need, for histograms made with HistogramWith; the
// engine's always-on histograms keep the cheaper decades.
var FineLatencyBuckets = []time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	200 * time.Microsecond,
	500 * time.Microsecond,
	time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	20 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	200 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	2 * time.Second,
	5 * time.Second,
	10 * time.Second,
}

// Histogram tallies durations into fixed buckets. Buckets are
// cumulative-free (each observation lands in exactly one bucket, the
// first whose upper bound contains it; observations beyond the last
// bound land in the overflow bucket).
type Histogram struct {
	bounds []time.Duration
	counts []atomic.Int64 // len(bounds)+1; last is overflow (+Inf)
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
	min    atomic.Int64 // nanoseconds; MaxInt64 until the first observation
	max    atomic.Int64 // nanoseconds
}

// NewHistogram builds a histogram over ascending upper bounds; nil
// bounds means DefaultLatencyBuckets.
func NewHistogram(bounds []time.Duration) *Histogram {
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	if bounds == nil {
		h.bounds = DefaultLatencyBuckets
		h.counts = make([]atomic.Int64, len(DefaultLatencyBuckets)+1)
	}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.min.Load()
		if int64(d) >= cur || h.min.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of everything observed
// so far; see HistogramSnapshot.Quantile for the estimator.
func (h *Histogram) Quantile(q float64) time.Duration { return h.snapshot().Quantile(q) }

// Snapshot returns a point-in-time copy of the histogram, for callers
// that need several derived statistics from one consistent view.
func (h *Histogram) Snapshot() HistogramSnapshot { return h.snapshot() }

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64
	Sum     time.Duration
	Min     time.Duration // smallest observation (0 when empty)
	Max     time.Duration // largest observation (0 when empty)
	Buckets []BucketCount
}

// BucketCount is one histogram bucket: observations ≤ UpperBound (and
// greater than the previous bound). UpperBound 0 marks the overflow
// (+Inf) bucket.
type BucketCount struct {
	UpperBound time.Duration
	Count      int64
}

// Mean returns the average observation, or 0 when empty.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// within the bucket holding the target rank: a bucket (lo, hi] with c
// observations is treated as c points spread evenly across its width.
// The tracked Min/Max tighten the first occupied bucket, the overflow
// bucket (whose upper bound is unbounded), and the result overall, so
// p0 is exactly Min, p100 exactly Max, and a single-observation
// histogram answers that observation for every q. Empty histograms
// answer 0; q outside [0,1] is clamped.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	target := q * float64(s.Count)
	var cum float64
	for i, b := range s.Buckets {
		if b.Count == 0 {
			continue
		}
		next := cum + float64(b.Count)
		if next < target {
			cum = next
			continue
		}
		lo := time.Duration(0)
		if i > 0 {
			lo = s.Buckets[i-1].UpperBound
		}
		hi := b.UpperBound
		if hi == 0 { // overflow bucket: bounded above by the observed max
			hi = s.Max
		}
		// Clip to the observed range: every observation lies in [Min, Max],
		// so no quantile can fall outside it.
		if lo < s.Min {
			lo = s.Min
		}
		if hi > s.Max {
			hi = s.Max
		}
		if hi <= lo {
			return lo
		}
		frac := (target - cum) / float64(b.Count)
		return lo + time.Duration(frac*float64(hi-lo))
	}
	return s.Max
}

func (h *Histogram) snapshot() HistogramSnapshot {
	out := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     time.Duration(h.sum.Load()),
		Max:     time.Duration(h.max.Load()),
		Buckets: make([]BucketCount, len(h.counts)),
	}
	if mn := h.min.Load(); mn != math.MaxInt64 {
		out.Min = time.Duration(mn)
	}
	for i := range h.bounds {
		out.Buckets[i] = BucketCount{UpperBound: h.bounds[i], Count: h.counts[i].Load()}
	}
	out.Buckets[len(h.bounds)] = BucketCount{Count: h.counts[len(h.bounds)].Load()}
	return out
}

// Registry is a named collection of instruments. Instruments are
// created on first use and live for the registry's lifetime, so callers
// may cache the returned pointers and record without further lookups.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it at zero on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram (default latency buckets),
// creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWith(name, nil)
}

// HistogramWith is Histogram with explicit bucket bounds (nil = the
// default latency buckets). Bounds apply only on first use: once a
// histogram exists under the name, later calls return it unchanged, so
// every recorder of a name should agree on its buckets.
func (r *Registry) HistogramWith(name string, bounds []time.Duration) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Counters   map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for n, c := range r.counters {
		out.Counters[n] = c.Value()
	}
	for n, h := range r.histograms {
		out.Histograms[n] = h.snapshot()
	}
	return out
}

// Ratio returns counter a over (a+b) as a fraction in [0,1], or 0 when
// both are zero — e.g. Ratio("apply_cache_hits", "apply_execs") is the
// apply cache hit ratio.
func (s Snapshot) Ratio(a, b string) float64 {
	x, y := s.Counters[a], s.Counters[b]
	if x+y == 0 {
		return 0
	}
	return float64(x) / float64(x+y)
}

// String renders the snapshot as aligned text, counters first then
// histograms, each sorted by name — the \metrics output.
func (s Snapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	w := 0
	for _, n := range names {
		if len(n) > w {
			w = len(n)
		}
	}
	for _, n := range names {
		fmt.Fprintf(&b, "%-*s %d\n", w, n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "%s: count=%d mean=%s p50=%s p95=%s p99=%s\n",
			n, h.Count, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99))
		for _, bk := range h.Buckets {
			if bk.Count == 0 {
				continue
			}
			bound := "+Inf"
			if bk.UpperBound > 0 {
				bound = bk.UpperBound.String()
			}
			fmt.Fprintf(&b, "  <= %-8s %d\n", bound, bk.Count)
		}
	}
	return b.String()
}

// Handler exposes one registry over HTTP as a JSON snapshot (recomputed
// per request) — the instance-scoped alternative to Publish. Unlike the
// expvar path there is no process-global name table: each registry gets
// its own handler on whatever mux the caller owns, so parallel server
// tests (and multiple servers in one process) never share or collide on
// counters. Append "?format=text" for the \metrics text rendering.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s := r.Snapshot()
		if req.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, s.String())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s)
	})
}

var (
	publishMu  sync.Mutex
	publishSet = map[string]bool{}
)

// Publish exposes the registry under the given expvar name as a JSON
// snapshot (recomputed per read). Publishing the same name twice is a
// no-op rather than the panic expvar.Publish would raise, so callers can
// publish unconditionally at startup.
//
// Prefer Handler for new code: expvar's name table is process-global, so
// two databases published under one name silently alias (the first
// wins), which is exactly the cross-test leakage an instance-scoped
// handler avoids.
func Publish(name string, r *Registry) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if publishSet[name] || expvar.Get(name) != nil {
		return
	}
	publishSet[name] = true
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
