package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"gapplydb"
	"gapplydb/client"
	"gapplydb/internal/trace"
	"gapplydb/xmlpub"
)

// sample is what one request left behind.
type sample struct {
	tmpl     string
	seq      int           // issue order within the window
	lat      time.Duration // from send (or, open loop, from due time) to last byte
	exec     time.Duration // Result.Elapsed / server-side execution time
	stats    gapplydb.ExecStats
	rows     int64 // rows returned; for local XML, rows tagged
	xmlBytes int64
	xml      bool
	local    bool          // ran in-process (no wire)
	tag      time.Duration // traced local XML: time in xmlpub.TagAll
	firstRow time.Duration // remote row stream: time to the first Rows.Next
	trace    *trace.Trace  // traced: the engine's (or server's) trace
	id       trace.ID
	engine   bool // went through the engine (not a bench-side insert)
}

// response collects a request's output for checking after the clock
// stops, so digesting adds nothing to the measured latency.
type response struct {
	xml  bytes.Buffer
	rows [][]any
}

func (r *response) reset() {
	r.xml.Reset()
	r.rows = r.rows[:0]
}

func (r *response) digest(d *digester) string {
	d.reset()
	if r.xml.Len() > 0 {
		d.Write(r.xml.Bytes())
	} else {
		for _, row := range r.rows {
			d.row(row)
		}
	}
	return d.sum()
}

// target runs requests: in-process against a database, or over the wire
// through one client connection.
type target interface {
	do(ctx context.Context, o op, traced bool, s *sample, r *response) error
	// traceOf fetches a traced request's trace from the server's flight
	// recorder.
	traceOf(id trace.ID) *trace.Trace
}

type localTarget struct{ db *gapplydb.Database }

func (t *localTarget) do(ctx context.Context, o op, traced bool, s *sample, r *response) error {
	s.local, s.engine, s.xml = true, true, o.xml()
	opts := o.opts
	if traced {
		s.id = trace.NewID()
		opts = append(opts[:len(opts):len(opts)], gapplydb.WithTraceBuilder(trace.NewBuilder(s.id, o.sql)))
	}
	var res *gapplydb.Result
	var err error
	if o.flwr != nil && !traced {
		res, err = xmlpub.Publish(t.db, o.flwr, xmlpub.GApply, &r.xml, opts...)
	} else {
		// Traced XML splits Publish into its query and its tagging so
		// the tagger's time is measured on its own.
		res, err = t.db.QueryContext(ctx, o.sql, opts...)
		if err == nil && o.xml() {
			t0 := time.Now()
			err = xmlpub.TagAll(o.plan, res.Rows, &r.xml)
			s.tag = time.Since(t0)
		}
	}
	if err != nil {
		return err
	}
	s.exec, s.stats, s.rows = res.Elapsed, res.Stats, int64(len(res.Rows))
	if o.xml() {
		s.xmlBytes = int64(r.xml.Len())
	} else {
		r.rows = res.Rows
	}
	return nil
}

func (t *localTarget) traceOf(id trace.ID) *trace.Trace { return t.db.Traces().Get(id) }

// remoteTarget is one client connection to a gapplyd server; db is the
// server's database, whose flight recorder holds the traces.
type remoteTarget struct {
	conn *client.Conn
	db   *gapplydb.Database
}

func (t *remoteTarget) do(ctx context.Context, o op, traced bool, s *sample, r *response) error {
	s.xml, s.engine = o.xml(), true
	var copts []client.QueryOption
	if traced {
		s.id = client.NewTraceID()
		copts = append(copts, client.WithTraceID(s.id))
	}
	start := time.Now()
	if o.xml() {
		st, err := t.conn.QueryXML(ctx, o.sql, o.plan, &r.xml, copts...)
		if err != nil {
			return err
		}
		s.exec, s.stats, s.xmlBytes = st.Elapsed, st.Exec, int64(r.xml.Len())
		return nil
	}
	rows, err := t.conn.Query(ctx, o.sql, copts...)
	if err != nil {
		return err
	}
	defer rows.Close()
	for {
		row, ok, err := rows.Next()
		if err != nil {
			return err
		}
		if s.firstRow == 0 {
			s.firstRow = time.Since(start)
		}
		if !ok {
			break
		}
		r.rows = append(r.rows, row)
	}
	st := rows.Stats()
	s.exec, s.stats, s.rows = st.Elapsed, st.Exec, int64(len(r.rows))
	return nil
}

// traceOf waits briefly for the trace: a distributed query's trace is
// recorded after its End frame is written, so it can trail the reply.
func (t *remoteTarget) traceOf(id trace.ID) *trace.Trace {
	for i := 0; i < 50; i++ {
		if tr := t.db.Traces().Get(id); tr != nil {
			return tr
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// checker compares responses with their recorded digests.
type checker struct {
	want map[string]string
	d    *digester
}

func newChecker(want map[string]string) *checker {
	return &checker{want: want, d: newDigester()}
}

// check returns nil when the response matches its digest. A statement
// without a recorded digest fails: every response must be checked.
func (c *checker) check(o op, r *response) error {
	want, ok := c.want[o.key]
	if !ok {
		return fmt.Errorf("%s: no recorded digest", o.key)
	}
	if got := r.digest(c.d); got != want {
		return fmt.Errorf("%s: digest %s, recorded %s", o.key, got, want)
	}
	return nil
}
