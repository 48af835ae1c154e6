package gapplydb

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

const gapplyCountQ = `select gapply(select count(*) from g) as (n)
	from partsupp group by ps_suppkey : g`

// TestQueryContextCancelled: a query on an already-cancelled context
// fails with context.Canceled and the session metrics record it in the
// cancelled tally (not just the generic error count).
func TestQueryContextCancelled(t *testing.T) {
	db := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.QueryContext(ctx, gapplyCountQ)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	m := db.Metrics()
	if m.Counters["queries_cancelled"] != 1 {
		t.Errorf("queries_cancelled = %d, want 1", m.Counters["queries_cancelled"])
	}
	if m.Counters["query_errors"] != 1 {
		t.Errorf("query_errors = %d, want 1", m.Counters["query_errors"])
	}
	if m.Counters["queries_timed_out"] != 0 || m.Counters["queries_budget_killed"] != 0 {
		t.Errorf("misclassified: %v", m.Counters)
	}
	// The session keeps working after a cancelled statement.
	if _, err := db.Query("select count(*) from part"); err != nil {
		t.Fatalf("query after cancellation: %v", err)
	}
}

// TestQueryTimeout: WithTimeout turns into a deadline on the execution
// context; an expired deadline surfaces as context.DeadlineExceeded and
// lands in the timed-out tally.
func TestQueryTimeout(t *testing.T) {
	db := fixture(t)
	_, err := db.Query(gapplyCountQ, WithTimeout(time.Nanosecond))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := db.Metrics().Counters["queries_timed_out"]; got != 1 {
		t.Errorf("queries_timed_out = %d, want 1", got)
	}
	// A generous timeout lets the query through.
	if _, err := db.Query(gapplyCountQ, WithTimeout(time.Minute)); err != nil {
		t.Fatalf("roomy timeout: %v", err)
	}
}

// TestQueryContextDeadlineComposesWithTimeout: the earlier of the
// caller's deadline and the budget timeout wins.
func TestQueryContextDeadlineComposesWithTimeout(t *testing.T) {
	db := fixture(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	_, err := db.QueryContext(ctx, gapplyCountQ, WithTimeout(time.Minute))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the caller's deadline to win", err)
	}
}

// TestQueryBudgetOutputRows: blowing MaxOutputRows yields a typed
// *ResourceError naming the limit and the offending operator, and lands
// in the budget-killed tally.
func TestQueryBudgetOutputRows(t *testing.T) {
	db := fixture(t)
	_, err := db.Query("select p_name from part", WithBudget(Budget{MaxOutputRows: 2}))
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want *gapplydb.ResourceError", err, err)
	}
	if re.Limit != "max-output-rows" || re.Max != 2 || re.Used != 3 {
		t.Errorf("ResourceError = %+v", re)
	}
	if re.Operator == "" {
		t.Error("ResourceError.Operator must name the plan operator")
	}
	if !strings.Contains(re.Error(), "max-output-rows") {
		t.Errorf("Error() = %q", re.Error())
	}
	if got := db.Metrics().Counters["queries_budget_killed"]; got != 1 {
		t.Errorf("queries_budget_killed = %d, want 1", got)
	}
	// Within budget, the query succeeds.
	if _, err := db.Query("select p_name from part", WithBudget(Budget{MaxOutputRows: 10})); err != nil {
		t.Fatalf("roomy budget: %v", err)
	}
}

// TestStreamBudgetOutputRows: a stream charges MaxOutputRows per
// delivered row whichever way it is consumed — Next, NextBatch, or the
// two mixed — delivering exactly Query's first rows, then the same
// *ResourceError Query reports.
func TestStreamBudgetOutputRows(t *testing.T) {
	db := fixture(t)
	const q = "select p_partkey, p_name from part"
	full, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rows) <= 3 {
		t.Fatalf("fixture has %d parts, need more than the budget of 3", len(full.Rows))
	}
	type step func(*Stream) ([][]any, bool, error)
	next := func(s *Stream) ([][]any, bool, error) {
		r, ok, err := s.Next()
		return [][]any{r}, ok, err
	}
	batch := func(s *Stream) ([][]any, bool, error) { return s.NextBatch() }
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"next", []step{next}},
		{"batch", []step{batch}},
		{"mixed", []step{next, batch}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := db.Stream(q, WithBudget(Budget{MaxOutputRows: 3}))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var got [][]any
			for i := 0; ; i++ {
				rows, ok, serr := tc.steps[i%len(tc.steps)](s)
				if !ok {
					err = serr
					break
				}
				got = append(got, rows...)
			}
			if !reflect.DeepEqual(got, full.Rows[:3]) {
				t.Fatalf("delivered %v, want Query's first 3 rows %v", got, full.Rows[:3])
			}
			var re *ResourceError
			if !errors.As(err, &re) || re.Limit != "max-output-rows" || re.Used != 4 {
				t.Fatalf("err = %v, want *ResourceError{max-output-rows, Used: 4}", err)
			}
			if cerr := s.Close(); cerr != err {
				t.Fatalf("Close() = %v, want the stream's error %v", cerr, err)
			}
		})
	}
}

// gapplyUnionQ is the Q2-style groupwise query whose union-of-subquery
// per-group shape the optimizer keeps as a real GApply (the plain
// count(*) shape decorrelates into a GroupBy with no partition phase).
const gapplyUnionQ = `select gapply(select count(*), null from g
		where p_retailprice >= (select avg(p_retailprice) from g)
		union all
		select null, count(*) from g
		where p_retailprice < (select avg(p_retailprice) from g)
	) as (above, below)
	from partsupp, part where ps_partkey = p_partkey
	group by ps_suppkey : g`

// TestQueryBudgetPartitionBytes: the partition-byte meter covers the
// GApply materialization and reports the GApply as the offender.
func TestQueryBudgetPartitionBytes(t *testing.T) {
	db := fixture(t)
	_, err := db.Query(gapplyUnionQ, WithBudget(Budget{MaxPartitionBytes: 32}))
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *gapplydb.ResourceError", err)
	}
	if re.Limit != "max-partition-bytes" || !strings.Contains(re.Operator, "GApply") {
		t.Errorf("ResourceError = %+v", re)
	}
	if _, err := db.Query(gapplyUnionQ, WithBudget(Budget{MaxPartitionBytes: 1 << 20})); err != nil {
		t.Fatalf("roomy budget: %v", err)
	}
}

// TestQueryContextNilContext: a nil context is tolerated (treated as
// background) rather than panicking deep in the engine.
func TestQueryContextNilContext(t *testing.T) {
	db := fixture(t)
	var nilCtx context.Context
	res, err := db.QueryContext(nilCtx, "select count(*) from part")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("nil ctx: res=%v err=%v", res, err)
	}
}

// TestExplainAnalyzeContextCancelled: the EXPLAIN ANALYZE entry point
// honors the same cancellation contract as QueryContext.
func TestExplainAnalyzeContextCancelled(t *testing.T) {
	db := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.ExplainAnalyzeContext(ctx, gapplyCountQ); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := db.Metrics().Counters["queries_cancelled"]; got != 1 {
		t.Errorf("queries_cancelled = %d, want 1", got)
	}
}

// TestParallelCancellationThroughAPI is the end-to-end acceptance check:
// a parallel (dop 8) groupwise query cancelled mid-execution returns
// context.Canceled promptly and the metrics record the cancellation.
func TestParallelCancellationThroughAPI(t *testing.T) {
	db := Open()
	if err := db.CreateTable("obs", []Column{{"k", "int"}, {"v", "float"}}, nil); err != nil {
		t.Fatal(err)
	}
	rows := make([][]any, 0, 60000)
	for i := 0; i < 60000; i++ {
		rows = append(rows, []any{i % 20000, float64(i)})
	}
	if err := db.Insert("obs", rows...); err != nil {
		t.Fatal(err)
	}
	db.RefreshStats()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// 20000 groups, each evaluating a union of subquery-filtered scans:
	// far more than 5ms of work, so the cancel lands mid-execution.
	_, err := db.QueryContext(ctx, `select gapply(select count(*), null from g
			where v >= (select avg(v) from g)
			union all
			select null, count(*) from g
			where v < (select avg(v) from g)
		) as (above, below) from obs group by k : g`, WithDOP(8))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled (elapsed %v)", err, elapsed)
	}
	if elapsed > 2*time.Second {
		t.Errorf("cancellation not prompt: %v", elapsed)
	}
	if got := db.Metrics().Counters["queries_cancelled"]; got != 1 {
		t.Errorf("queries_cancelled = %d, want 1", got)
	}
}
