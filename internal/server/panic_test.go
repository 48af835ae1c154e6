package server

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gapplydb"
	"gapplydb/client"
)

// Statements the fault-injecting distributor claims and then panics on;
// every other statement is declined and runs on the local database.
const (
	panicInDistribute = "select 1 as panic_in_distribute"
	panicInNextBatch  = "select 2 as panic_in_next_batch"
)

// panicDistributor injects a panic into a claimed query's own goroutine:
// in Distribute itself, or in its stream's second NextBatch call, after
// one batch of rows has already gone out on the wire.
type panicDistributor struct{}

func (panicDistributor) Distribute(_ context.Context, query string, _ DistOptions) (RowStream, bool, error) {
	switch query {
	case panicInDistribute:
		panic("injected fault in Distribute")
	case panicInNextBatch:
		return &panicStream{}, true, nil
	}
	return nil, false, nil
}

type panicStream struct{ calls int }

func (*panicStream) Columns() []string { return []string{"x"} }

func (s *panicStream) NextBatch() ([][]any, bool, error) {
	s.calls++
	if s.calls == 1 {
		return [][]any{{int64(1)}}, true, nil
	}
	panic("injected fault in NextBatch")
}

func (*panicStream) Close() error              { return nil }
func (*panicStream) Stats() gapplydb.ExecStats { return gapplydb.ExecStats{} }
func (*panicStream) Elapsed() time.Duration    { return 0 }

// TestQueryPanicContained: a panic in one query's goroutine fails that
// query alone with an internal error whose trace carries the panic value
// and stack, while a concurrent query on another session returns
// byte-identical rows. The admission slot and the active-query gauge
// come back, the panicking session stays usable, and no goroutine leaks.
func TestQueryPanicContained(t *testing.T) {
	db := testDB(t)
	base := runtime.NumGoroutine()
	t.Cleanup(func() { waitNoExtraGoroutines(t, base) })
	srv := startServer(t, Config{MaxConcurrent: 2, Distributor: panicDistributor{}})

	ctx := context.Background()
	const refQ = "select gapply(select count(*) from g) as (cnt) from partsupp group by ps_suppkey : g"
	ref, err := db.QueryContext(ctx, refQ)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		query  string
		traced bool
	}{
		{panicInDistribute, true},
		{panicInDistribute, false},
		{panicInNextBatch, true},
		{panicInNextBatch, false},
	} {
		bad, good := dial(t, srv), dial(t, srv)

		var (
			wg       sync.WaitGroup
			goodCols []string
			goodRows [][]any
			goodErr  error
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows, err := good.Query(ctx, refQ)
			if err != nil {
				goodErr = err
				return
			}
			defer rows.Close()
			for {
				row, ok, err := rows.Next()
				if err != nil {
					goodErr = err
					return
				}
				if !ok {
					break
				}
				goodRows = append(goodRows, row)
			}
			goodCols = rows.Columns
		}()

		var opts []client.QueryOption
		id := client.NewTraceID()
		if tc.traced {
			opts = append(opts, client.WithTraceID(id))
		}
		rows, err := bad.Query(ctx, tc.query, opts...)
		if err == nil {
			err = drainRows(rows)
		}
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != client.CodeInternal {
			t.Fatalf("%s: err = %v, want an %s server error", tc.query, err, client.CodeInternal)
		}
		if !strings.Contains(se.Message, "injected fault") {
			t.Fatalf("%s: message %q does not carry the panic value", tc.query, se.Message)
		}
		// An untraced query gets a trace opened for its panic.
		if (tc.traced && se.TraceID != id) || se.TraceID.IsZero() {
			t.Fatalf("%s: error echoed trace %s (traced=%v, issued %s)", tc.query, se.TraceID, tc.traced, id)
		}
		tr := srv.db.Traces().Get(se.TraceID)
		if tr == nil {
			t.Fatalf("%s: panic trace not in the flight recorder", tc.query)
		}
		if tr.Status != "error" || !strings.Contains(tr.Error, "injected fault") ||
			!strings.Contains(tr.Error, "runtime/debug.Stack") {
			t.Fatalf("%s: trace status %q, error %q: want the panic value and stack", tc.query, tr.Status, tr.Error)
		}

		wg.Wait()
		if goodErr != nil {
			t.Fatalf("%s: concurrent query: %v", tc.query, goodErr)
		}
		requireSameRows(t, "concurrent "+refQ, ref, goodCols, goodRows)

		if err := bad.Ping(ctx); err != nil {
			t.Fatalf("%s: panicking session unusable afterwards: %v", tc.query, err)
		}
	}

	waitSettled(t, srv)
	if got := srv.Metrics().Counters["server_errors_internal"]; got != 4 {
		t.Fatalf("server_errors_internal = %d, want 4", got)
	}
}
