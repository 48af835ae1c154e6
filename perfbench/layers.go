package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"gapplydb/internal/exchange"
	"gapplydb/internal/server"
	"gapplydb/internal/trace"
)

// opClasses are the operator families whose self time is reported. An
// operator span is named after the first word of its plan node, so hash
// and merge joins share "join", and GroupBy and Aggregate share
// "groupby".
var opClasses = []string{"scan", "indexscan", "select", "project", "join", "sort", "groupby", "apply", "gapply", "groupscan", "union"}

var opClassOf = map[string]string{
	"Scan": "scan", "IndexScan": "indexscan", "Select": "select", "Project": "project",
	"Join": "join", "LeftOuterJoin": "join", "OrderBy": "sort", "GroupBy": "groupby",
	"Aggregate": "groupby", "Apply": "apply", "OuterApply": "apply", "Exists": "apply",
	"NotExists": "apply", "GApply": "gapply", "GroupScan": "groupscan", "UnionAll": "union",
}

// selfTimes is each span's duration minus the durations of its child
// spans, floored at zero (parallel GApply workers' times sum, so
// children can exceed their parent).
func selfTimes(t *trace.Trace) []time.Duration {
	self := make([]time.Duration, len(t.Spans))
	for i, s := range t.Spans {
		self[i] = s.Dur
	}
	for _, s := range t.Spans {
		if s.Parent >= 0 && s.Parent < len(self) {
			self[s.Parent] -= s.Dur
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// opSelf sums operator self time by class.
func opSelf(t *trace.Trace) map[string]time.Duration {
	out := map[string]time.Duration{}
	self := selfTimes(t)
	for i, s := range t.Spans {
		word, _, _ := strings.Cut(s.Name, " ")
		if c, ok := opClassOf[word]; ok {
			out[c] += self[i]
		}
	}
	return out
}

// phases sums the compile-phase spans of a trace.
func phases(t *trace.Trace) (cache, parse, bind, optimize time.Duration, rules int, optimized bool) {
	for _, s := range t.Spans {
		switch s.Name {
		case "plan-cache":
			cache += s.Dur
		case "parse":
			parse += s.Dur
		case "bind":
			bind += s.Dur
		case "optimize":
			optimize += s.Dur
			optimized = true
			for _, a := range s.Attrs {
				if a.Key == "rules_accepted" {
					n, _ := strconv.Atoi(a.Value)
					rules += n
				}
			}
		}
	}
	return
}

// extras are per-layer figures measured by probes after the windows.
type extras struct {
	wireOverheadUS float64 // serve, sharded: remote − in-process latency of the same statements
	coordOverhead  float64 // sharded: coordinator − single-node latency, ms
	mergeUSPerRow  float64 // sharded: exchange merge cost per row
	loadS          float64 // setup: time in OpenTPCH / OpenTPCHShard
}

// perLayer computes the per-layer metrics. Counts, runtime and server
// figures come from the untraced window w0; span figures from the
// traced window w1, which ran the same requests.
func perLayer(w0, w1 *window, x extras) metricList {
	var m metricList
	var reqs, hits, scanned, rowsOut, groups, inner, spoolB, spoolH int64
	var execT time.Duration
	var firstRow []float64
	for _, s := range w0.samples {
		if !s.engine {
			continue
		}
		reqs++
		if s.stats.PlanCacheHits > 0 { // a distributed statement sums its shards' hits
			hits++
		}
		execT += s.exec
		scanned += s.stats.RowsScanned
		if !s.xml {
			rowsOut += s.rows
		}
		groups += s.stats.Groups
		inner += s.stats.InnerExecs
		spoolB += s.stats.SpoolBuilds
		spoolH += s.stats.SpoolHits
		if !s.local && !s.xml {
			firstRow = append(firstRow, us(s.firstRow))
		}
	}
	m.add("gapplydb.plancache_hit_ratio", "ratio", ratio(float64(hits), float64(reqs)))

	var traced, compileN float64
	var compile, parse, bind, optimize, materialize, tag time.Duration
	var rules, optimizedN, xmlRows, xmlBytes, localN float64
	self := map[string]time.Duration{}
	var unattributed []float64
	for _, s := range w1.samples {
		if s.trace == nil {
			continue
		}
		traced++
		c, p, b, o, r, opt := phases(s.trace)
		compile += c + p + b + o
		parse, bind, optimize = parse+p, bind+b, optimize+o
		compileN++
		if opt {
			rules += float64(r)
			optimizedN++
		}
		for k, v := range opSelf(s.trace) {
			self[k] += v
		}
		if s.local {
			localN++
			materialize += s.lat - (c + p + b + o) - s.exec - s.tag
			if s.xml {
				tag += s.tag
				xmlRows += float64(s.rows)
				xmlBytes += float64(s.xmlBytes)
			}
		}
		// The blocking steps of a request are the engine's root span
		// (compile and execution, and on a server admission and
		// streaming) and, in-process, the tagger after it.
		unattributed = append(unattributed, ms(s.lat-s.trace.Dur-s.tag))
	}
	per := func(d time.Duration, n float64) float64 { return ratio(float64(d), n) }
	m.add("gapplydb.compile_us", "us", per(compile, compileN)/1e3)
	m.add("sql.parse_us", "us", per(parse, compileN)/1e3)
	m.add("bind.bind_us", "us", per(bind, compileN)/1e3)
	m.add("opt.optimize_us", "us", per(optimize, compileN)/1e3)
	m.add("opt.rules_accepted", "count", ratio(rules, optimizedN))
	m.add("gapplydb.materialize_ms", "ms", per(materialize, localN)/1e6)
	m.add("exec.execute_ms", "ms", per(execT, float64(reqs))/1e6)
	m.add("exec.rows_examined_per_row", "ratio", ratio(float64(scanned), float64(rowsOut)))
	for _, c := range opClasses {
		m.add("exec."+c+".self_ms", "ms", per(self[c], traced)/1e6)
	}
	m.add("exec.spool_hit_ratio", "ratio", ratio(float64(spoolH), float64(spoolB+spoolH)))
	m.add("exec.inner_execs_per_group", "ratio", ratio(float64(inner), float64(groups)))
	m.add("storage.insert_us_per_row", "us", ratio(us(w0.insertTime), float64(w0.insertRows)))
	m.add("storage.index_rebuild_ms", "ms", mean(w1.rebuildMS))
	m.add("tpch.load_s", "s", x.loadS)

	srv := serverSnap{
		admWait: w0.srv1.admWait - w0.srv0.admWait, admCount: w0.srv1.admCount - w0.srv0.admCount,
		rejected: w0.srv1.rejected - w0.srv0.rejected,
		bytesOut: w0.srv1.bytesOut - w0.srv0.bytesOut, rowOut: w0.srv1.rowOut - w0.srv0.rowOut,
	}
	m.add("server.admission_wait_us", "us", ratio(us(srv.admWait), float64(srv.admCount)))
	m.add("server.rejected", "count", float64(srv.rejected))
	m.add("server.bytes_per_row", "B/row", ratio(float64(srv.bytesOut), float64(srv.rowOut)))
	m.add("client.wire_overhead_us", "us", x.wireOverheadUS)
	m.add("client.first_row_us", "us", median(firstRow))

	dist := float64(w0.co1.Distributed - w0.co0.Distributed)
	decl := float64(w0.co1.Declined - w0.co0.Declined)
	m.add("coord.distributed_frac", "ratio", ratio(dist, dist+decl))
	m.add("coord.overhead_ms", "ms", x.coordOverhead)
	m.add("exchange.merge_us_per_row", "us", x.mergeUSPerRow)
	m.add("xmlpub.tag_ms", "ms", per(tag, float64(countXML(w1)))/1e6)
	m.add("xmlpub.bytes_per_row", "B/row", ratio(xmlBytes, xmlRows))

	rt0, rt1 := w0.rt0, w0.rt1
	m.add("runtime.gc_cpu_frac", "ratio", ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU))
	m.add("runtime.gc_cycles_per_op", "ratio", ratio(rt1.gcCycles-rt0.gcCycles, float64(len(w0.samples))))
	m.add("runtime.sched_p99_us", "us", schedP99(rt0.sched, rt1.sched))

	p0, p1 := median(latencies(w0.samples)), median(latencies(w1.samples))
	m.add("bench.trace_overhead_p50_ms", "ms", p1-p0)
	m.add("bench.unattributed_p50_ms", "ms", median(unattributed))
	m.add("bench.traced_frac", "ratio", ratio(traced, float64(len(w1.samples))))
	m.add("bench.failed_frac", "ratio", ratio(float64(w0.failed+w1.failed), float64(w0.attempted+w1.attempted)))
	return m
}

func countXML(w *window) int {
	n := 0
	for _, s := range w.samples {
		if s.local && s.xml && s.trace != nil {
			n++
		}
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// wireOverhead times the same statements remotely and in-process
// (Database.Stream, the path the server itself uses) and returns the
// mean difference of their medians, in µs.
func wireOverhead(ctx context.Context, e *env, mix []template, reps int) float64 {
	t := e.targets[0]
	var diffs []float64
	for _, tm := range mix {
		o := tm.make(0)
		if o.xml() || tm.weight == 0 {
			continue
		}
		var remote, local []float64
		r := &response{}
		for i := 0; i < reps; i++ {
			var s sample
			r.reset()
			t0 := time.Now()
			if err := t.do(ctx, o, false, &s, r); err != nil {
				return 0
			}
			remote = append(remote, us(time.Since(t0)))
			d, err := streamLocal(ctx, e, o)
			if err != nil {
				return 0
			}
			local = append(local, us(d))
		}
		diffs = append(diffs, median(remote)-median(local))
	}
	return mean(diffs)
}

// coordOverhead times each statement of the sharded mix through the
// coordinator, through a plain server on the same full replica, and
// in-process on the replica (Database.Stream, the path the server
// itself uses). It returns the mean difference of the coordinator's and
// the plain server's medians, in ms, and of the plain server's and the
// in-process medians, in µs: the coordinator's cost and the wire's.
func coordOverhead(ctx context.Context, e *env, mix []template, reps int) (coordMS, wireUS float64) {
	ref, err := startServer(e.db, server.Config{})
	if err != nil {
		return 0, 0
	}
	defer ref.Shutdown(ctx)
	rt, err := e.dial(ref, e.db)
	if err != nil {
		return 0, 0
	}
	var coordDiffs, wireDiffs []float64
	r := &response{}
	for _, tm := range mix {
		o := tm.make(0)
		var sharded, single, local []float64
		for i := 0; i < reps; i++ {
			for _, side := range []struct {
				t   target
				out *[]float64
			}{{e.targets[0], &sharded}, {rt, &single}} {
				var s sample
				r.reset()
				t0 := time.Now()
				if err := side.t.do(ctx, o, false, &s, r); err != nil {
					return 0, 0
				}
				*side.out = append(*side.out, ms(time.Since(t0)))
			}
			d, err := streamLocal(ctx, e, o)
			if err != nil {
				return 0, 0
			}
			local = append(local, ms(d))
		}
		coordDiffs = append(coordDiffs, median(sharded)-median(single))
		wireDiffs = append(wireDiffs, 1e3*(median(single)-median(local)))
		fmt.Printf("north-star sharded/single-node %-16s %.2fx (%.3f ms vs %.3f ms; in-process %.3f ms)\n",
			tm.name, median(sharded)/median(single), median(sharded), median(single), median(local))
	}
	return mean(coordDiffs), mean(wireDiffs)
}

// streamLocal runs a statement in-process through Database.Stream and
// returns how long it took to drain.
func streamLocal(ctx context.Context, e *env, o op) (time.Duration, error) {
	t0 := time.Now()
	st, err := e.db.StreamContext(ctx, o.sql, o.opts...)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	for {
		_, ok, err := st.NextBatch()
		if err != nil {
			return 0, err
		}
		if !ok {
			return time.Since(t0), nil
		}
	}
}

// northStar prints, ahead of the result line, the ROADMAP's headline
// comparisons between in-process and loopback execution, each with the
// part the server's own trace accounts for; the rest is the wire and the
// client.
func northStar(ctx context.Context, e *env) {
	cases := []struct {
		label string
		o     op
		reps  int
	}{
		{"1-row point query", sqlOp("select s_name, s_acctbal from supplier where s_suppkey = 42"), 300},
		{"60k-row lineitem stream", sqlOp("select l_orderkey, l_partkey, l_suppkey, l_quantity from lineitem"), 9},
	}
	t := e.targets[0]
	for _, c := range cases {
		var local, remote, server []float64
		r := &response{}
		for i := 0; i < c.reps; i++ {
			d, err := streamLocal(ctx, e, c.o)
			if err != nil {
				return
			}
			local = append(local, ms(d))
			var s sample
			r.reset()
			t1 := time.Now()
			if err := t.do(ctx, c.o, true, &s, r); err != nil {
				return
			}
			remote = append(remote, ms(time.Since(t1)))
			if tr := t.traceOf(s.id); tr != nil {
				server = append(server, ms(tr.Dur))
			}
		}
		fmt.Printf("north-star %-24s in-process %.3f ms, loopback %.3f ms (%.2fx); server-side span %.3f ms\n",
			c.label, median(local), median(remote), median(remote)/median(local), median(server))
	}
}

// mergeCost fetches the ordered partsupp scan from every worker, then
// times exchange.Merge over the fetched streams, in µs per row.
func mergeCost(ctx context.Context, e *env) float64 {
	var streams [][][]any
	total := 0
	for i, srv := range e.shards {
		t, err := e.dial(srv, e.shardDBs[i])
		if err != nil {
			return 0
		}
		var s sample
		r := &response{}
		if err := t.do(ctx, sqlOp(psOrdered), false, &s, r); err != nil {
			return 0
		}
		streams = append(streams, r.rows)
		total += len(r.rows)
	}
	keys := []exchange.MergeKey{{Ord: 1}, {Ord: 0}}
	var best time.Duration
	for rep := 0; rep < 5; rep++ {
		srcs := make([]exchange.RowSource, len(streams))
		for i, rows := range streams {
			srcs[i] = &sliceSource{rows: rows}
		}
		t0 := time.Now()
		m := exchange.NewMerge(srcs, keys)
		for {
			_, ok, err := m.Next()
			if err != nil || !ok {
				break
			}
		}
		if d := time.Since(t0); rep == 0 || d < best {
			best = d
		}
	}
	return ratio(us(best), float64(total))
}

type sliceSource struct {
	rows [][]any
	i    int
}

func (s *sliceSource) Next() ([]any, bool, error) {
	if s.i == len(s.rows) {
		return nil, false, nil
	}
	s.i++
	return s.rows[s.i-1], true, nil
}

// spanRecord is one request of the traced window as written out: the
// bench's own measurements and the engine's spans, under one trace ID.
type spanRecord struct {
	ID        trace.ID     `json:"id"`
	Template  string       `json:"template"`
	LatencyNS int64        `json:"latency_ns"`
	TagNS     int64        `json:"tag_ns,omitempty"`
	FirstRow  int64        `json:"first_row_ns,omitempty"`
	Spans     []trace.Span `json:"spans"`
}

// writeSpans writes the traced window's spans, kept in memory during the
// run, to path.
func writeSpans(path string, w *window) error {
	out := make([]spanRecord, 0, len(w.samples))
	for _, s := range w.samples {
		if s.trace == nil {
			continue
		}
		out = append(out, spanRecord{ID: s.id, Template: s.tmpl, LatencyNS: int64(s.lat),
			TagNS: int64(s.tag), FirstRow: int64(s.firstRow), Spans: s.trace.Spans})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
