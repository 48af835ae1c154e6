package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"gapplydb"
	"gapplydb/internal/trace"
	"gapplydb/internal/wire"
	"gapplydb/xmlpub"
)

// sessionOptions are the session-scoped execution defaults a client
// sets with TypeSet frames; a query's own options override them field
// by field.
type sessionOptions struct {
	timeout           time.Duration
	maxOutputRows     int64
	maxPartitionBytes int64
	dop               int
	explain           string // "", "plan", "analyze"
	// traceSampling is the session's head-sampling probability for
	// queries that do not carry their own trace ID; -1 means "use the
	// server's configured default".
	traceSampling float64
}

// session is one client connection: a read loop dispatching frames,
// any number of concurrently running query goroutines streaming
// results back through a write mutex, and the per-session half of
// admission control (the in-flight cap).
type session struct {
	srv  *Server
	conn net.Conn
	br   *bufio.Reader

	wmu sync.Mutex
	bw  *bufio.Writer

	ctx    context.Context // session root; cancel tears down every query
	cancel context.CancelFunc

	// maxFrame is the session's frame limit: the server's configured
	// maximum until the handshake, the negotiated value after.
	maxFrame int

	mu       sync.Mutex
	opts     sessionOptions
	inflight map[uint64]context.CancelFunc
	wgQ      sync.WaitGroup
	draining bool
}

func newSession(s *Server, conn net.Conn) *session {
	ctx, cancel := context.WithCancel(context.Background())
	sess := &session{
		srv: s, conn: conn,
		br: bufio.NewReaderSize(conn, 64<<10),
		bw: bufio.NewWriterSize(conn, 64<<10),

		maxFrame: s.cfg.MaxFrame,

		ctx: ctx, cancel: cancel,
		inflight: make(map[uint64]context.CancelFunc),
	}
	sess.opts.traceSampling = -1 // inherit the server default
	return sess
}

// writeFrame serializes one frame to the connection. Frames from
// concurrent query goroutines interleave whole — never byte-mixed —
// because the mutex covers the write+flush pair.
func (s *session) writeFrame(t wire.Type, payload []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := wire.WriteFrame(s.bw, t, payload); err != nil {
		return err
	}
	return s.bw.Flush()
}

func (s *session) writeError(id uint64, code, msg string) error {
	return s.writeErrorTraced(id, code, msg, trace.ID{})
}

// writeErrorTraced is writeError echoing the failed query's trace ID so
// the client can still find the error's trace in the flight recorder.
func (s *session) writeErrorTraced(id uint64, code, msg string, tid trace.ID) error {
	// Per-code taxonomy counters: server_errors_cancelled, _timeout,
	// _busy, … so operators (and the replay harness) can tell shedding
	// from genuine failures without parsing logs.
	s.srv.reg.Counter("server_errors_" + code).Inc()
	m := wire.ErrorMsg{ID: id, Code: code, Message: msg, Trace: tid}
	return s.writeFrame(wire.TypeError, m.Encode())
}

// serve runs the session to completion: handshake, then the dispatch
// loop until the client hangs up, a protocol violation poisons the
// stream, or shutdown closes the connection. Teardown cancels every
// in-flight query (the mid-stream-disconnect contract: the engine
// unwinds within one row batch and the admission slots come back).
func (s *session) serve() {
	defer func() {
		s.cancel()   // cancel in-flight queries
		s.wgQ.Wait() // wait for their goroutines to release slots
		s.conn.Close()
		s.srv.removeSession(s)
	}()
	if err := s.handshake(); err != nil {
		s.srv.logf("session %s: handshake: %v", s.conn.RemoteAddr(), err)
		return
	}
	for {
		t, payload, err := wire.ReadFrame(s.br, s.maxFrame)
		if err != nil {
			if errors.Is(err, wire.ErrFrameTooLarge) {
				// The stream position is unrecoverable past an oversized
				// header: report and hang up.
				s.writeError(0, wire.CodeProtocol, err.Error())
			}
			return
		}
		if err := s.dispatch(t, payload); err != nil {
			s.srv.logf("session %s: %v", s.conn.RemoteAddr(), err)
			return
		}
	}
}

// handshake expects the client's Hello within the configured deadline
// and answers with Welcome.
func (s *session) handshake() error {
	s.conn.SetReadDeadline(time.Now().Add(s.srv.cfg.HandshakeTimeout))
	defer s.conn.SetReadDeadline(time.Time{})
	t, payload, err := wire.ReadFrame(s.br, s.srv.cfg.MaxFrame)
	if err != nil {
		return err
	}
	if t != wire.TypeHello {
		s.writeError(0, wire.CodeProtocol, "expected hello")
		return fmt.Errorf("expected hello, got %v", t)
	}
	version, clientMax, err := wire.DecodeHello(payload)
	if err != nil {
		s.writeError(0, wire.CodeProtocol, err.Error())
		return err
	}
	if version != wire.ProtocolVersion {
		s.writeError(0, wire.CodeProtocol,
			fmt.Sprintf("protocol version %d unsupported (want %d)", version, wire.ProtocolVersion))
		return fmt.Errorf("version mismatch: %d", version)
	}
	negotiated, err := wire.NegotiateFrame(s.srv.cfg.MaxFrame, clientMax)
	if err != nil {
		s.writeError(0, wire.CodeProtocol, err.Error())
		return err
	}
	s.maxFrame = negotiated
	return s.writeFrame(wire.TypeWelcome, wire.EncodeWelcomeMax(s.srv.cfg.Banner, negotiated))
}

// dispatch routes one frame. A returned error poisons the session.
func (s *session) dispatch(t wire.Type, payload []byte) error {
	switch t {
	case wire.TypeQuery:
		m, err := wire.DecodeQuery(payload)
		if err != nil {
			return err
		}
		s.startQuery(m)
		return nil
	case wire.TypeCancel:
		id, err := wire.DecodeID(payload)
		if err != nil {
			return err
		}
		s.mu.Lock()
		cancel := s.inflight[id]
		s.mu.Unlock()
		if cancel != nil {
			s.srv.reg.Counter("server_cancels").Inc()
			cancel()
		}
		return nil
	case wire.TypePing:
		id, err := wire.DecodeID(payload)
		if err != nil {
			return err
		}
		return s.writeFrame(wire.TypePong, wire.EncodeID(id))
	case wire.TypeSet:
		m, err := wire.DecodeSet(payload)
		if err != nil {
			return err
		}
		if err := s.setOption(m.Name, m.Value); err != nil {
			return s.writeError(m.ID, wire.CodeProtocol, err.Error())
		}
		return s.writeFrame(wire.TypeOK, wire.EncodeID(m.ID))
	default:
		return fmt.Errorf("unexpected frame %v", t)
	}
}

// setOption applies one session-scoped default.
func (s *session) setOption(name, value string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch strings.ToLower(name) {
	case "timeout":
		if value == "off" || value == "0" {
			s.opts.timeout = 0
			return nil
		}
		d, err := time.ParseDuration(value)
		if err != nil || d < 0 {
			return fmt.Errorf("bad timeout %q", value)
		}
		s.opts.timeout = d
	case "max_output_rows":
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("bad max_output_rows %q", value)
		}
		s.opts.maxOutputRows = n
	case "max_partition_bytes":
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("bad max_partition_bytes %q", value)
		}
		s.opts.maxPartitionBytes = n
	case "dop":
		n, err := strconv.Atoi(value)
		if err != nil {
			return fmt.Errorf("bad dop %q", value)
		}
		s.opts.dop = n
	case "explain":
		switch strings.ToLower(value) {
		case "off", "":
			s.opts.explain = ""
		case "plan":
			s.opts.explain = "plan"
		case "analyze":
			s.opts.explain = "analyze"
		default:
			return fmt.Errorf("bad explain mode %q (off|plan|analyze)", value)
		}
	case "trace_sampling":
		if strings.EqualFold(value, "default") {
			s.opts.traceSampling = -1
			return nil
		}
		p, err := strconv.ParseFloat(value, 64)
		if err != nil || p < 0 || p > 1 {
			return fmt.Errorf("bad trace_sampling %q (0..1 or \"default\")", value)
		}
		s.opts.traceSampling = p
	default:
		return fmt.Errorf("unknown session option %q", name)
	}
	return nil
}

// startQuery admits one query submission at the session level (drain
// gate, per-session in-flight cap) and spawns its goroutine.
func (s *session) startQuery(m *wire.QueryMsg) {
	s.srv.reg.Counter("server_queries").Inc()
	if s.srv.draining.Load() || s.sessionDraining() {
		s.srv.reg.Counter("server_queries_rejected").Inc()
		s.writeError(m.ID, wire.CodeShutdown, "server is shutting down")
		return
	}
	qctx, cancel := context.WithCancel(s.ctx)
	s.mu.Lock()
	if len(s.inflight) >= s.srv.cfg.SessionInFlight {
		s.mu.Unlock()
		cancel()
		s.srv.reg.Counter("server_queries_rejected").Inc()
		s.writeError(m.ID, wire.CodeSession,
			fmt.Sprintf("session in-flight limit (%d) reached", s.srv.cfg.SessionInFlight))
		return
	}
	if _, dup := s.inflight[m.ID]; dup {
		s.mu.Unlock()
		cancel()
		s.writeError(m.ID, wire.CodeProtocol, "query id already in flight")
		return
	}
	s.inflight[m.ID] = cancel
	s.wgQ.Add(1)
	s.mu.Unlock()

	go func() {
		tb := s.traceBuilder(m) // nil for untraced; all span calls no-op
		var stream RowStream    // set by runQuery; closed here, after a panic is recorded
		defer func() {
			if r := recover(); r != nil {
				s.queryPanicked(m, tb, r)
			}
			if stream != nil {
				stream.Close()
			}
			s.mu.Lock()
			delete(s.inflight, m.ID)
			s.mu.Unlock()
			cancel()
			s.wgQ.Done()
		}()
		s.runQuery(qctx, m, tb, &stream)
	}()
}

// queryPanicked contains a panic in one query's goroutine: the query
// fails alone with an internal error frame, and its trace (one is
// opened if the query was untraced) lands in the flight recorder with
// the panic value and stack as its error. runQuery's own defers have
// already released the admission slot and the active-query gauge; the
// caller closes the stream afterwards, so the engine cannot seal the
// trace as a success first.
func (s *session) queryPanicked(m *wire.QueryMsg, tb *trace.Builder, r any) {
	stack := debug.Stack()
	if tb == nil {
		tb = trace.NewBuilder(trace.NewID(), m.SQL)
	}
	msg := fmt.Sprintf("panic: %v", r)
	s.srv.logf("session %s: query %d: %s\n%s", s.conn.RemoteAddr(), m.ID, msg, stack)
	// Record before answering, so the trace is retrievable by the time
	// the client sees the error.
	s.srv.db.Traces().Record(tb.Finish("error", msg+"\n"+string(stack)))
	s.srv.reg.Counter("server_query_errors").Inc()
	s.writeErrorTraced(m.ID, wire.CodeInternal, msg, tb.ID())
}

func (s *session) sessionDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// drain flips the session to reject new queries, waits for the
// in-flight ones to finish streaming, and hangs up — the graceful half
// of Shutdown.
func (s *session) drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.wgQ.Wait()
	s.conn.Close() // unblocks the read loop; serve() finishes teardown
}

// effOpts are one query's fully resolved execution options: session
// defaults folded under the query's own.
type effOpts struct {
	timeout           time.Duration
	maxOutputRows     int64
	maxPartitionBytes int64
	dop               int
	partition         string
	forceRules        []string
	disableRules      []string
	explain           bool // statement is (or became) an EXPLAIN
}

// pinned reports whether the client pinned planner decisions —
// distribution is skipped so the pins take effect literally.
func (e *effOpts) pinned() bool {
	return e.partition != "" || len(e.forceRules) > 0 || len(e.disableRules) > 0
}

// engineOptions renders the resolved options for the embedded engine.
func (e *effOpts) engineOptions() []gapplydb.QueryOption {
	var opts []gapplydb.QueryOption
	if e.timeout > 0 || e.maxOutputRows > 0 || e.maxPartitionBytes > 0 {
		opts = append(opts, gapplydb.WithBudget(gapplydb.Budget{
			Timeout: e.timeout, MaxOutputRows: e.maxOutputRows, MaxPartitionBytes: e.maxPartitionBytes,
		}))
	}
	if e.dop != 0 {
		opts = append(opts, gapplydb.WithDOP(e.dop))
	}
	if e.partition != "" {
		opts = append(opts, gapplydb.WithPartition(e.partition))
	}
	for _, r := range e.forceRules {
		opts = append(opts, gapplydb.ForceRule(r))
	}
	for _, r := range e.disableRules {
		opts = append(opts, gapplydb.WithoutRule(r))
	}
	return opts
}

// effectiveOptions folds session defaults under the query's own
// options, returning the effective statement text (the session explain
// mode may prefix it) and the resolved options.
func (s *session) effectiveOptions(m *wire.QueryMsg) (string, effOpts) {
	s.mu.Lock()
	so := s.opts
	s.mu.Unlock()

	eff := effOpts{
		timeout:           so.timeout,
		maxOutputRows:     so.maxOutputRows,
		maxPartitionBytes: so.maxPartitionBytes,
		dop:               so.dop,
		partition:         m.Opts.Partition,
		forceRules:        m.Opts.ForceRules,
		disableRules:      m.Opts.DisableRules,
	}
	if m.Opts.Timeout > 0 {
		eff.timeout = m.Opts.Timeout
	}
	if m.Opts.MaxOutputRows > 0 {
		eff.maxOutputRows = m.Opts.MaxOutputRows
	}
	if m.Opts.MaxPartitionBytes > 0 {
		eff.maxPartitionBytes = m.Opts.MaxPartitionBytes
	}
	switch {
	case m.Opts.DOP > 0:
		eff.dop = int(m.Opts.DOP)
	case m.Opts.DOP < 0: // explicit engine default, overriding session dop
		eff.dop = 0
	}

	query := m.SQL
	if so.explain != "" && !hasExplainPrefix(query) {
		if so.explain == "analyze" {
			query = "explain analyze " + query
		} else {
			query = "explain " + query
		}
	}
	eff.explain = hasExplainPrefix(query)
	return query, eff
}

func hasExplainPrefix(q string) bool {
	return strings.HasPrefix(strings.ToLower(strings.TrimSpace(q)), "explain")
}

// Streaming shape: batches flush at either bound, so small results
// arrive in one frame and large ones never materialize server-side.
const (
	batchMaxRows  = 256
	batchMaxBytes = 128 << 10
	xmlChunkBytes = 32 << 10
)

// traceBuilder decides whether this submission is traced and, if so,
// opens the trace before admission so the queue wait is a span. A
// client-issued trace ID always traces; otherwise the session's (or
// server's) head-sampling probability draws on the server's sampler.
func (s *session) traceBuilder(m *wire.QueryMsg) *trace.Builder {
	id := m.Trace
	if id.IsZero() {
		s.mu.Lock()
		p := s.opts.traceSampling
		s.mu.Unlock()
		if p < 0 {
			p = s.srv.cfg.TraceSampling
		}
		if !s.srv.sampler.Sample(p) {
			return nil
		}
		id = trace.NewID()
	}
	return trace.NewBuilder(id, m.SQL)
}

// runQuery executes one admitted submission end to end: global
// admission, engine stream, row-batch or XML streaming, completion or
// error frame. It owns the query's admission slot; the stream it opens
// is handed back through *stream for the caller to close.
func (s *session) runQuery(ctx context.Context, m *wire.QueryMsg, tb *trace.Builder, stream *RowStream) {
	tid := tb.ID()
	admSpan := tb.StartSpan("admission", 0)
	if err := s.srv.adm.acquire(ctx); err != nil {
		tb.EndSpan(admSpan)
		switch {
		case errors.Is(err, errBusy):
			s.writeErrorTraced(m.ID, wire.CodeBusy, "too many concurrent queries; retry later", tid)
		case errors.Is(err, context.Canceled):
			s.writeErrorTraced(m.ID, wire.CodeCancelled, "cancelled while queued", tid)
		default:
			s.writeErrorTraced(m.ID, errorCode(err), err.Error(), tid)
		}
		// The engine never saw this query, so the server records the
		// admission-failure trace itself.
		s.srv.db.Traces().Record(tb.Finish("error", err.Error()))
		return
	}
	tb.EndSpan(admSpan)
	defer s.srv.adm.release()
	s.srv.reg.Counter("server_queries_active").Inc()
	defer s.srv.reg.Counter("server_queries_active").Add(-1)

	query, eff := s.effectiveOptions(m)

	// Distributed path: a coordinator gets first claim on every plain
	// query. EXPLAIN and client-pinned queries stay local (the local
	// database is the coordinator's full replica, so local is always
	// correct); a declined query falls through for the same reason.
	if d := s.srv.cfg.Distributor; d != nil && !eff.explain && !eff.pinned() {
		ds, handled, err := d.Distribute(ctx, query, DistOptions{
			Timeout:           eff.timeout,
			MaxOutputRows:     eff.maxOutputRows,
			MaxPartitionBytes: eff.maxPartitionBytes,
			DOP:               eff.dop,
			TraceID:           tid,
		})
		if err != nil {
			s.srv.reg.Counter("server_query_errors").Inc()
			s.writeErrorTraced(m.ID, errorCode(err), err.Error(), tid)
			if tb != nil {
				s.srv.db.Traces().Record(tb.Finish("error", err.Error()))
			}
			return
		}
		if handled {
			*stream = ds
			tb.SetQuery(query)
			if m.Opts.XML {
				s.streamXML(m.ID, ds, m.Opts.TagPlan, tid)
			} else {
				s.streamRows(m.ID, ds, tid)
			}
			s.srv.db.Traces().Record(tb.Finish("ok", ""))
			return
		}
	}

	opts := eff.engineOptions()
	if tb != nil {
		tb.SetQuery(query) // session explain mode may have prefixed it
		opts = append(opts, gapplydb.WithTraceBuilder(tb))
	}
	es, err := s.srv.db.StreamContext(ctx, query, opts...)
	if err != nil {
		s.srv.reg.Counter("server_query_errors").Inc()
		s.writeErrorTraced(m.ID, errorCode(err), err.Error(), tid)
		return
	}
	*stream = engineStream{es}

	if m.Opts.XML {
		s.streamXML(m.ID, *stream, m.Opts.TagPlan, tid)
		return
	}
	s.streamRows(m.ID, *stream, tid)
}

// streamRows sends the header, then row batches, then End (or Error).
func (s *session) streamRows(id uint64, stream RowStream, tid trace.ID) {
	cols := stream.Columns()
	h := wire.RowHeaderMsg{ID: id, Columns: cols}
	if err := s.writeFrame(wire.TypeRowHeader, h.Encode()); err != nil {
		return // connection gone; teardown cancels the stream
	}
	ncols := len(cols)
	var (
		batch      [][]any
		batchBytes int
		total      int64
	)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		payload, err := wire.EncodeRowBatch(id, ncols, batch)
		if err != nil {
			return err
		}
		if err := s.writeFrame(wire.TypeRowBatch, payload); err != nil {
			return err
		}
		s.srv.reg.Counter("server_rows_streamed").Add(int64(len(batch)))
		s.srv.reg.Counter("server_bytes_streamed").Add(int64(len(payload)))
		batch = batch[:0]
		batchBytes = 0
		return nil
	}
	// Rows arrive in engine batches; per-row work here is only the frame
	// bookkeeping. Frame boundaries are still governed by batchMaxRows /
	// batchMaxBytes, so the wire shape is unchanged.
	for {
		rows, ok, err := stream.NextBatch()
		if err != nil {
			s.srv.reg.Counter("server_query_errors").Inc()
			s.writeErrorTraced(id, errorCode(err), err.Error(), tid)
			return
		}
		if !ok {
			break
		}
		for _, row := range rows {
			batch = append(batch, row)
			batchBytes += rowSize(row)
			total++
			if len(batch) >= batchMaxRows || batchBytes >= batchMaxBytes {
				if err := flush(); err != nil {
					return
				}
			}
		}
	}
	if err := flush(); err != nil {
		return
	}
	end := wire.EndMsg{ID: id, Rows: total, Elapsed: stream.Elapsed(), Stats: statPairs(stream.Stats()), Trace: tid}
	s.writeFrame(wire.TypeEnd, end.Encode())
}

// streamXML pipes the result through the constant-space tagger into
// XMLChunk frames — the whole document never exists server-side.
func (s *session) streamXML(id uint64, stream RowStream, planJSON []byte, tid trace.ID) {
	var plan xmlpub.TagPlan
	if err := json.Unmarshal(planJSON, &plan); err != nil {
		s.writeErrorTraced(id, wire.CodeProtocol, "bad tag plan: "+err.Error(), tid)
		return
	}
	cw := &chunkWriter{sess: s, id: id}
	tagger := xmlpub.NewTagger(&plan, cw)
	for {
		rows, ok, err := stream.NextBatch()
		if err != nil {
			s.srv.reg.Counter("server_query_errors").Inc()
			s.writeErrorTraced(id, errorCode(err), err.Error(), tid)
			return
		}
		if !ok {
			break
		}
		for _, row := range rows {
			if err := tagger.Row(row); err != nil {
				if cw.err != nil {
					return // connection gone
				}
				s.writeError(id, wire.CodeInternal, err.Error())
				return
			}
		}
	}
	if err := tagger.Close(); err != nil {
		if cw.err == nil {
			s.writeError(id, wire.CodeInternal, err.Error())
		}
		return
	}
	if err := cw.flush(); err != nil {
		return
	}
	end := wire.EndMsg{ID: id, Rows: cw.written, Elapsed: stream.Elapsed(), Stats: statPairs(stream.Stats()), Trace: tid}
	s.writeFrame(wire.TypeEnd, end.Encode())
}

// chunkWriter buffers tagger output and emits XMLChunk frames at the
// chunk threshold. written counts document bytes (not frame overhead).
type chunkWriter struct {
	sess    *session
	id      uint64
	buf     []byte
	written int64
	err     error
}

func (c *chunkWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	c.buf = append(c.buf, p...)
	if len(c.buf) >= xmlChunkBytes {
		if err := c.flush(); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

func (c *chunkWriter) flush() error {
	if c.err != nil {
		return c.err
	}
	if len(c.buf) == 0 {
		return nil
	}
	payload := wire.EncodeChunk(c.id, c.buf)
	if err := c.sess.writeFrame(wire.TypeXMLChunk, payload); err != nil {
		c.err = err
		return err
	}
	c.sess.srv.reg.Counter("server_bytes_streamed").Add(int64(len(c.buf)))
	c.written += int64(len(c.buf))
	c.buf = c.buf[:0]
	return nil
}

// rowSize approximates one row's encoded size for batch flushing.
func rowSize(row []any) int {
	n := 0
	for _, v := range row {
		switch x := v.(type) {
		case string:
			n += 5 + len(x)
		default:
			n += 9
		}
	}
	return n
}
