// Command perfbench is gapplydb's benchmark: it runs one named workload
// against the engine, a gapplyd server or a sharded cluster, checks
// every response against a recorded digest, and prints its metrics as
// one JSON object on the last line of standard output. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"gapplydb"
)

// config is one run's settings.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	sf        float64 // 0 = benchSF
	digestDir string
	maxReq    int // stop a window after this many requests (0 = time only)
	setups    int
	spanOut   string // traced run: where the spans are written
}

// The workloads' scale factors and serve's fixed arrival rate.
const (
	benchSF = 0.01
	// serveRate is an eighth of the rate two connections sustain on
	// serve's mix on a 2-core machine (about 4,000/s); see README.md.
	serveRate = 500.0
	// setupRepeats is how many times a run sets its workload up; setup_s
	// is their median.
	setupRepeats = 9
)

type workload struct {
	name  string
	mix   func(domains) []template
	setup func(sf float64) (*env, error)
}

var workloads = []workload{
	{"publish", func(domains) []template { return publishMix() }, setupLocal},
	{"serve", serveMix, func(sf float64) (*env, error) { return setupServe(sf, 2) }},
	{"sharded", func(domains) []template { return shardedMix() }, setupSharded},
	{"refresh", func(domains) []template { return refreshMix() }, setupLocal},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	cfg := config{digestDir: filepath.Join("perfbench", "digests"), setups: setupRepeats}
	var regen bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: publish, serve, sharded or refresh")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the request mix and inputs are drawn from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.BoolVar(&regen, "regen", false, "regenerate the digests and exit")
	flag.Parse()
	cfg.trace = *trace == 1
	if regen {
		n, err := regenDigests(cfg.digestDir, benchSF)
		if err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d digests to %s\n", n, digestFile(cfg.digestDir, benchSF))
		return
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fail(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

type metricList []metric

func (m *metricList) add(name, unit string, v float64) { *m = append(*m, metric{name, v, unit}) }

// result is the last line a run prints.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func newResult(w []*window, m metricList) *result {
	r := &result{Metrics: map[string]map[string]any{}}
	for _, x := range w {
		r.Attempted += x.attempted
		r.Failed += x.failed
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, x := range m {
		r.Metrics[x.name] = map[string]any{"value": x.value, "unit": x.unit}
	}
	return r
}

// run sets the workload up, measures it, and returns the result.
func run(ctx context.Context, cfg config) (*result, error) {
	wl, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	sf := cfg.sf
	if sf == 0 {
		sf = benchSF
	}
	var want map[string]string
	if wl.name != "refresh" {
		var err error
		if want, err = loadDigests(cfg.digestDir, sf); err != nil {
			return nil, err
		}
	}

	// Set-up: load, index, boot, warm up — several times, keeping the
	// last deployment; setup_s is the median. Each set-up starts from a
	// collected heap, as a fresh process would, so the garbage of the
	// one before does not land on it. The traced run does not report
	// setup_s and sets up once.
	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	var e *env
	var setupS, loadS []float64
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
			e = nil
		}
		runtime.GC()
		t0 := time.Now()
		ne, err := wl.setup(sf)
		if err != nil {
			ne.close()
			return nil, fmt.Errorf("setting up %s: %w", wl.name, err)
		}
		if err := warm(ctx, ne, wl.mix(ne.dom)); err != nil {
			ne.close()
			return nil, fmt.Errorf("warming up %s: %w", wl.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		loadS = append(loadS, ne.load.Seconds())
		e = ne
	}
	defer e.close()
	logf("set-up times %.3v s", setupS)
	dur := time.Duration(cfg.seconds * float64(time.Second))

	measure := func(e *env, traced bool) (*window, error) {
		w := newWindow(traced)
		w.begin(e)
		mix := wl.mix(e.dom)
		var f *refresher
		switch wl.name {
		case "serve":
			gen := newGenerator(cfg.seed, mix)
			gen.every, gen.rare = lineitemEvery, templateIndex(mix, "lineitem_stream")
			runOpen(ctx, e, gen, cfg.seed, serveRate, w, dur, cfg.maxReq, want)
		case "refresh":
			f = newRefresher(e, cfg.seed)
			iters := int(cfg.seconds * refreshItersPerSecond)
			if cfg.maxReq > 0 {
				iters = (cfg.maxReq + 3) / 4
			}
			r := &response{}
			for i := 0; i < iters; i++ {
				f.iteration(ctx, w, r)
			}
		default:
			runClosed(ctx, e, newGenerator(cfg.seed, mix), w, dur, cfg.maxReq, newChecker(want))
		}
		w.end(e)
		if f == nil {
			return w, nil
		}
		// Refresh's responses are checked after the window, against a
		// freshly loaded database replaying its inserts.
		ref, err := gapplydb.OpenTPCH(sf)
		if err != nil {
			return nil, err
		}
		defer ref.Close()
		return w, f.verify(ref, w)
	}

	w0, err := measure(e, false)
	if err != nil {
		return nil, err
	}
	heap := liveHeapMB()
	summarize(wl.name, w0)
	if !cfg.trace {
		return newResult([]*window{w0}, endToEnd(w0, wl.name == "serve", setupS, heap)), nil
	}

	// Refresh grew the tables in the first window; the traced window
	// repeats the same iterations on a freshly set-up database, so the
	// tracing overhead is not mixed with table growth.
	te := e
	if wl.name == "refresh" {
		if te, err = wl.setup(sf); err != nil {
			te.close()
			return nil, fmt.Errorf("setting up %s again: %w", wl.name, err)
		}
		defer te.close()
		if err := warm(ctx, te, wl.mix(te.dom)); err != nil {
			return nil, fmt.Errorf("warming up %s again: %w", wl.name, err)
		}
	}
	w1, err := measure(te, true)
	if err != nil {
		return nil, err
	}
	summarize(wl.name+" (traced)", w1)
	x := extras{loadS: median(loadS)}
	switch wl.name {
	case "serve":
		x.wireOverheadUS = wireOverhead(ctx, e, wl.mix(e.dom), 30)
		fmt.Printf("serve generator lag: p99 %.3f ms over %d sleeps\n",
			quantile(append([]float64(nil), w0.genLag...), 0.99), len(w0.genLag))
		northStar(ctx, e)
	case "sharded":
		x.coordOverhead, x.wireOverheadUS = coordOverhead(ctx, e, wl.mix(e.dom), 9)
		x.mergeUSPerRow = mergeCost(ctx, e)
	}
	out := cfg.spanOut
	if out == "" {
		out = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", wl.name, cfg.seed))
	}
	if err := writeSpans(out, w1); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	logf("spans of %d traced requests written to %s", len(w1.samples), out)
	return newResult([]*window{w0, w1}, perLayer(w0, w1, x)), nil
}

// warm runs every template of the mix once on every client, so caches
// fill and lazy set-up finishes before the window.
func warm(ctx context.Context, e *env, mix []template) error {
	r := &response{}
	for _, t := range e.targets {
		for _, tm := range mix {
			o := tm.make(0)
			if o.sql == "" {
				continue
			}
			var s sample
			r.reset()
			if err := t.do(ctx, o, false, &s, r); err != nil {
				return fmt.Errorf("%s: %w", o.key, err)
			}
		}
	}
	return nil
}

// endToEnd computes the metrics a user of the system sees. On a shared
// machine a slow stretch of a few seconds shifts every request in it, so
// the median and throughput are taken per slice of the window (in issue
// order) and the median over the slices is reported; the open loop's
// 99th percentile likewise, its slices holding about 2,000 requests each.
func endToEnd(w *window, open bool, setupS []float64, heapMB float64) metricList {
	var m metricList
	n := float64(len(w.samples))
	var p50s, qps []float64
	for _, sl := range slices(w.samples, timeSlices) {
		lat := latencies(sl)
		p50s = append(p50s, quantile(lat, 0.5))
		var busy float64
		for _, x := range lat {
			busy += x
		}
		qps = append(qps, ratio(float64(len(sl)), busy/1e3))
	}
	m.add("setup_s", "s", median(setupS))
	p99 := quantile(latencies(w.samples), 0.99)
	if open {
		m.add("throughput_qps", "req/s", ratio(n, w.wall.Seconds()))
		p99 = slicedP99(w.samples)
	} else {
		// One client: its busy time is the sum of its latencies.
		m.add("throughput_qps", "req/s", median(qps))
	}
	m.add("latency_p50_ms", "ms", median(p50s))
	m.add("latency_p99_ms", "ms", p99)
	m.add("alloc_kb_per_op", "KiB", ratio(w.rt1.allocBytes-w.rt0.allocBytes, n)/1024)
	m.add("heap_live_mb", "MiB", heapMB)
	return m
}

// timeSlices is how many slices the median and throughput are taken over.
const timeSlices = 5

// slices cuts samples, ordered by issue, into k slices of equal count.
func slices(samples []sample, k int) [][]sample {
	sorted := append([]sample(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].seq < sorted[j].seq })
	if len(sorted) < k {
		k = 1
	}
	out := make([][]sample, k)
	for i := range out {
		out[i] = sorted[i*len(sorted)/k : (i+1)*len(sorted)/k]
	}
	return out
}

// slicedP99 is the median of the 99th percentiles of timeSlices slices
// of the requests, in issue order.
func slicedP99(samples []sample) float64 {
	var per []float64
	for _, sl := range slices(samples, timeSlices) {
		per = append(per, quantile(latencies(sl), 0.99))
	}
	return median(per)
}

// summarize prints a per-template table of the window to standard
// output, ahead of the result line.
func summarize(name string, w *window) {
	by := map[string][]float64{}
	for _, s := range w.samples {
		by[s.tmpl] = append(by[s.tmpl], ms(s.lat))
	}
	names := make([]string, 0, len(by))
	for k := range by {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d attempted, %d failed, %.2fs window\n", name, w.attempted, w.failed, w.wall.Seconds())
	for _, k := range names {
		fmt.Printf("  %-24s n=%-6d p50=%8.3fms p99=%8.3fms\n", k, len(by[k]), quantile(by[k], 0.5), quantile(by[k], 0.99))
	}
}
