package gapplydb

import (
	"strconv"

	"gapplydb/internal/core"
	"gapplydb/internal/exec"
	"gapplydb/internal/trace"
)

// TraceID identifies one traced query end to end: minted by the client
// or the engine, carried on the wire, echoed on completion, and the key
// into the flight recorder. The zero value means "not traced".
type TraceID = trace.ID

// TraceRecorder is the flight recorder holding completed traces; see
// Database.Traces.
type TraceRecorder = trace.Recorder

// NewTraceID mints a random trace ID (for callers that want to pick the
// ID before issuing the query, so the trace is addressable even if the
// query never completes).
func NewTraceID() TraceID { return trace.NewID() }

// ParseTraceID parses the 32-hex-digit rendering of a trace ID.
func ParseTraceID(s string) (TraceID, error) { return trace.ParseID(s) }

// Default flight-recorder retention: the N most recent completed traces
// plus, independently, the N slowest since the database opened.
const (
	defaultTraceRecent  = 32
	defaultTraceSlowest = 32
)

// WithTracing forces the query to be traced: a trace ID is minted (or
// the one from WithTraceID used), phase and operator spans are
// collected, and the completed trace lands in the flight recorder.
// Tracing implies per-operator instrumentation for the query.
func WithTracing() QueryOption {
	return func(c *queryConfig) { c.forceTrace = true }
}

// WithTraceID traces the query under a caller-chosen ID (a zero ID is
// ignored). Remote clients use this so the ID they hold matches the
// server's flight recorder.
func WithTraceID(id TraceID) QueryOption {
	return func(c *queryConfig) {
		c.traceID = id
		if !id.IsZero() {
			c.forceTrace = true
		}
	}
}

// WithTraceBuilder attaches an externally created trace builder — the
// network server opens the builder itself so the trace includes spans
// (admission wait) from before the engine is entered. The engine adds
// its compile/execute spans to the builder, finishes it, and records the
// completed trace in the flight recorder.
func WithTraceBuilder(b *trace.Builder) QueryOption {
	return func(c *queryConfig) { c.traceBuilder = b }
}

// Traces returns the database's trace flight recorder: the most recent
// and the slowest completed traces, queryable by ID. The server's
// /debug/traces endpoint and gsql's \trace command read from it.
func (db *Database) Traces() *TraceRecorder { return db.traces }

// traceSetup decides whether this query is traced and opens its builder:
// an externally supplied builder wins, then a forced/ID'd trace. Traced
// queries run instrumented (see start) so operator spans can be
// reconstructed from the profile; untraced queries return nil and every
// downstream trace call is a nil-receiver no-op. Sampling is the
// network server's: it opens a builder for the queries it samples.
func (db *Database) traceSetup(cfg *queryConfig, query string) *trace.Builder {
	if cfg.traceBuilder == nil {
		if !cfg.forceTrace {
			return nil
		}
		id := cfg.traceID
		if id.IsZero() {
			id = trace.NewID()
		}
		cfg.traceBuilder = trace.NewBuilder(id, query)
	}
	db.reg.Counter("queries_traced").Inc()
	return cfg.traceBuilder
}

// finishTrace seals a builder with the query's outcome and records the
// completed trace in the flight recorder. Safe on nil builders and
// after a previous finish (both no-ops).
func (db *Database) finishTrace(tb *trace.Builder, err error) {
	if tb == nil {
		return
	}
	status, msg := "ok", ""
	if err != nil {
		status, msg = "error", err.Error()
	}
	db.traces.Record(tb.Finish(status, msg))
}

// operatorSpanName names an operator span the way plan summaries do:
// scans keep their table / group variable, everything else is the first
// word of its Describe line.
func operatorSpanName(n core.Node) string {
	switch x := n.(type) {
	case *core.Scan:
		return "Scan " + x.Table
	case *core.GroupScan:
		return "GroupScan $" + x.Var
	}
	name := n.Describe()
	for i := 0; i < len(name); i++ {
		if name[i] == ' ' {
			return name[:i]
		}
	}
	return name
}

// attachOperatorSpans reconstructs per-operator spans from the
// execution profile after the run: one span per plan node, nested to
// mirror the plan tree under the execute span. The profile records
// inclusive time but no wall-clock starts, so every operator span
// inherits the execute span's start offset — in the Chrome rendering
// they stack as a flame graph keyed by duration. Under parallel GApply
// worker times sum, so an operator span may exceed its parent; that is
// the same convention EXPLAIN ANALYZE prints.
func attachOperatorSpans(tb *trace.Builder, execSpan int, plan core.Node, prof *exec.Profile) {
	if tb == nil || prof == nil || plan == nil {
		return
	}
	start := tb.SpanStart(execSpan)
	var walk func(n core.Node, parent int)
	walk = func(n core.Node, parent int) {
		st := prof.Stats(n)
		attrs := []trace.Attr{
			{Key: "rows", Value: strconv.FormatInt(st.Rows, 10)},
			{Key: "loops", Value: strconv.FormatInt(st.Opens, 10)},
		}
		if st.SpoolBuilds > 0 || st.SpoolHits > 0 {
			attrs = append(attrs,
				trace.Attr{Key: "spool_builds", Value: strconv.FormatInt(st.SpoolBuilds, 10)},
				trace.Attr{Key: "spool_hits", Value: strconv.FormatInt(st.SpoolHits, 10)},
				trace.Attr{Key: "spool_bytes", Value: strconv.FormatInt(st.SpoolBytes, 10)},
			)
		}
		idx := tb.AddSynthetic(operatorSpanName(n), parent, start, st.Time, attrs)
		for _, c := range n.Children() {
			walk(c, idx)
		}
	}
	walk(plan, execSpan)
}
