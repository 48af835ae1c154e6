package gapplydb

import (
	"context"
	"time"

	"gapplydb/internal/exec"
	"gapplydb/internal/sql"
	"gapplydb/internal/trace"
	"gapplydb/internal/types"
)

// Stream is an incrementally consumed query result: the rows of Query,
// delivered as execution produces them, without the server-side
// materialization Result implies. The network server streams every
// remote query through one of these, so a large result only ever exists
// in full on the client.
//
// A Stream belongs to a single goroutine. Close must always be called;
// it is idempotent and releases the execution (and the database's
// in-flight registration, which Database.Close waits on). Draining a
// stream to completion yields exactly the rows, errors and statistics
// Query produces: Query is such a drain.
type Stream struct {
	// Columns are the output column names, in order.
	Columns []string

	db      *Database
	c       *compiled
	mode    sql.ExplainMode // the EXPLAIN routing start chose
	cur     *exec.Cursor    // nil until exec.Start returns, and for plain EXPLAIN
	ectx    *exec.Context
	batch   [][]any // the last converted batch; Next steps through batch[pos:]
	pos     int
	stop    context.CancelFunc // unwinds lifecycle/timeout contexts
	release func()             // db in-flight registration
	start   time.Time
	stats   ExecStats
	elapsed time.Duration
	done    bool
	err     error

	// tb is the builder spanning this query (nil when untraced); finish
	// closes its execute span and reconstructs operator spans under it.
	tb       *trace.Builder
	execSpan int
}

// Stream is StreamContext under context.Background().
func (db *Database) Stream(query string, options ...QueryOption) (*Stream, error) {
	return db.StreamContext(context.Background(), query, options...)
}

// StreamContext parses, binds, optimizes and starts a statement,
// returning a Stream over its output instead of a materialized Result.
// Cancellation, deadlines and budgets behave exactly as in QueryContext;
// the MaxOutputRows budget is charged per delivered row. A statement
// with an EXPLAIN [ANALYZE] prefix is executed through the explain path
// (which materializes) and its report lines are replayed as the stream's
// rows, so remote shells need no special casing.
func (db *Database) StreamContext(ctx context.Context, query string, options ...QueryOption) (*Stream, error) {
	s, err := db.start(ctx, query, options, sql.ExplainNone)
	if err != nil || s.mode == sql.ExplainNone {
		return s, err
	}
	e, err := s.explanation()
	if err != nil {
		return nil, err
	}
	res := e.planResult()
	s.Columns, s.batch = res.Columns, res.Rows
	return s, nil
}

// start runs one statement's lifecycle up to its first row: admission,
// tracing, compilation, EXPLAIN routing, the lifecycle and timeout
// contexts, and exec.Start under the execute span and clock. Every query
// entry point goes through it, and the returned Stream owns the
// admission until finish settles it. A plain EXPLAIN never executes, so
// its stream comes back settled. explain, when set, overrides the
// statement's own EXPLAIN prefix (the Explain* entry points).
func (db *Database) start(ctx context.Context, query string, options []QueryOption, explain sql.ExplainMode) (*Stream, error) {
	release, err := db.acquire()
	if err != nil {
		return nil, err
	}
	s := &Stream{db: db, release: release, stop: func() {}}
	// Until a cursor runs, the admission is start's to release: on every
	// error, on a plain EXPLAIN, and on a panic, or Database.Close hangs.
	defer func() {
		if s.cur == nil {
			s.stop()
			s.release()
		}
	}()
	cfg := makeConfig(options)
	s.tb = db.traceSetup(&cfg, query)
	s.c, cfg.planCacheHit, err = db.compile(query, cfg)
	if err != nil {
		db.finishTrace(s.tb, err)
		return nil, err
	}
	s.mode = s.c.mode
	if explain != sql.ExplainNone {
		s.mode = explain
	}
	if s.mode == sql.ExplainPlan {
		s.done = true
		db.finishTrace(s.tb, nil)
		return s, nil
	}
	ctx, s.stop = db.lifecycleContext(ctx, cfg.budget.Timeout)
	s.ectx = db.execContext(ctx, cfg)
	if s.tb != nil || s.mode == sql.ExplainAnalyze {
		s.ectx.Prof = exec.NewProfile()
	}
	s.execSpan = s.tb.StartSpan("execute", 0)
	s.start = time.Now()
	cur, err := exec.Start(s.c.plan, s.ectx)
	if err != nil {
		s.finish(err)
		return nil, s.err
	}
	s.cur = cur
	s.Columns = make([]string, cur.Schema.Len())
	for i, col := range cur.Schema.Cols {
		s.Columns[i] = col.QualifiedName()
	}
	return s, nil
}

// Next returns the next row (values in the same Go representations
// Result.Rows uses). ok=false with a nil error marks exhaustion; errors
// are classified exactly as QueryContext classifies them and are final.
func (s *Stream) Next() ([]any, bool, error) {
	for s.pos == len(s.batch) {
		if _, ok, err := s.NextBatch(); !ok {
			return nil, false, err
		}
		s.pos = 0
	}
	s.pos++
	return s.batch[s.pos-1], true, nil
}

// NextBatch returns the next rows in bulk — up to one engine batch (256
// rows) per call — in the same Go representations Next uses. ok=false
// with a nil error marks exhaustion. The returned outer slice is reused
// by the following NextBatch call; the per-row slices are freshly
// allocated and may be retained. Mixing Next and NextBatch is allowed:
// no row is delivered twice. The network server frames results through
// this path so the engine's batches flow to the wire without a per-row
// hand-off.
func (s *Stream) NextBatch() ([][]any, bool, error) {
	if s.pos < len(s.batch) { // rows Next has not stepped through yet
		out := s.batch[s.pos:]
		s.pos = len(s.batch)
		return out, true, nil
	}
	if s.done {
		return nil, false, s.err
	}
	b, err := s.cur.NextBatch()
	if b == nil {
		s.finish(err)
		return nil, false, s.err
	}
	n := b.Len()
	if cap(s.batch) < n {
		s.batch = make([][]any, n)
	}
	s.batch = s.batch[:n]
	for i := range s.batch {
		row := b.Row(i)
		vals := make([]any, len(row))
		for j, v := range row {
			vals[j] = toGo(v)
		}
		s.batch[i] = vals
	}
	s.pos = n
	return s.batch, true, nil
}

// result drains the rest of the stream's engine batches into a
// materialized Result, settling the stream.
func (s *Stream) result() (*Result, error) {
	defer func() {
		if !s.done { // a panic cut the drain short: still release the admission
			s.stop()
			s.release()
		}
	}()
	var rows []types.Row
	for !s.done {
		b, err := s.cur.NextBatch()
		if b == nil {
			s.finish(err)
			break
		}
		rows = b.AppendRows(rows)
	}
	if s.err != nil {
		return nil, s.err
	}
	out := newResult(&exec.Result{Schema: s.c.plan.Schema(), Rows: rows})
	out.Elapsed = s.elapsed
	out.Stats = s.stats
	out.Trace = toTrace(s.c.trace)
	out.TraceID = s.tb.ID()
	return out, nil
}

// finish settles the stream exactly once and is the only place a query
// is recorded: cursor close, metrics, stats, error classification,
// operator spans, the trace, and the lifecycle registrations.
func (s *Stream) finish(err error) {
	if s.done {
		return
	}
	s.done = true
	if s.cur != nil {
		s.cur.Close()
	}
	s.elapsed = time.Since(s.start)
	s.db.reg.Counter("queries").Inc()
	s.db.reg.Histogram("execute_latency").Observe(s.elapsed)
	if err != nil {
		s.err = s.db.classifyExecError(err)
	} else {
		s.db.recordExecMetrics(s.ectx.Counters)
		s.stats = statsOf(s.ectx.Counters)
	}
	s.tb.EndSpan(s.execSpan)
	attachOperatorSpans(s.tb, s.execSpan, s.c.plan, s.ectx.Prof)
	s.db.finishTrace(s.tb, s.err)
	s.stop()
	s.release()
}

// Close abandons (or, after exhaustion, finalizes) the stream. Closing
// before exhaustion counts the query as executed and records the work
// done up to that point. Always returns the stream's final error state.
func (s *Stream) Close() error {
	s.finish(nil)
	s.pos = len(s.batch)
	return s.err
}

// Err returns the error the stream ended with, if any.
func (s *Stream) Err() error { return s.err }

// Stats returns the executor's work counters; valid after the stream is
// exhausted (before that it is zero).
func (s *Stream) Stats() ExecStats { return s.stats }

// Elapsed is the execution wall time: from just before the plan is built
// and opened to exhaustion (or Close).
func (s *Stream) Elapsed() time.Duration { return s.elapsed }

// TraceID identifies this query's end-to-end trace in the flight
// recorder; zero when the query is not traced. Valid from StreamContext
// return (the ID is assigned before execution starts).
func (s *Stream) TraceID() TraceID { return s.tb.ID() }
