package gapplydb

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"gapplydb/internal/types"
)

// Database.Close battery: Close rejects new work with ErrDatabaseClosed,
// cancels in-flight queries and streams through their execution
// contexts, blocks until they have unwound, invalidates the plan cache,
// and is idempotent under concurrent callers — the teardown contract the
// network server's shutdown sequence is built on.

// closeHeavyQ takes long enough at sf 0.001 that Close always lands
// while it is executing.
const closeHeavyQ = "select count(*) from lineitem l1, lineitem l2"

func closableDB(t *testing.T) *Database {
	t.Helper()
	db, err := OpenTPCH(0.001)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCloseRejectsNewQueries(t *testing.T) {
	db := closableDB(t)
	if _, err := db.Query("select count(*) from part"); err != nil {
		t.Fatalf("before close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query("select count(*) from part"); !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("Query after close: err = %v, want ErrDatabaseClosed", err)
	}
	if _, err := db.QueryContext(context.Background(), "select count(*) from part"); !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("QueryContext after close: err = %v, want ErrDatabaseClosed", err)
	}
	if _, err := db.Stream("select count(*) from part"); !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("Stream after close: err = %v, want ErrDatabaseClosed", err)
	}
	if _, err := db.ExplainPlan("select count(*) from part"); !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("ExplainPlan after close: err = %v, want ErrDatabaseClosed", err)
	}
	if _, err := db.ExplainAnalyze("select count(*) from part"); !errors.Is(err, ErrDatabaseClosed) {
		t.Fatalf("ExplainAnalyze after close: err = %v, want ErrDatabaseClosed", err)
	}
}

func TestCloseCancelsInFlightQuery(t *testing.T) {
	db := closableDB(t)
	started := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		close(started)
		_, err := db.QueryContext(context.Background(), closeHeavyQ)
		errc <- err
	}()
	<-started
	time.Sleep(50 * time.Millisecond) // let execution reach the iterator loop
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("in-flight query ended with %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight query did not unwind after Close")
	}
}

func TestCloseCancelsOpenStream(t *testing.T) {
	db := closableDB(t)
	s, err := db.Stream("select l_orderkey from lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Next(); err != nil || !ok {
		t.Fatalf("first row: ok=%v err=%v", ok, err)
	}

	// Close blocks on the stream; drain it from another goroutine.
	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()
	var streamErr error
	for {
		_, ok, err := s.Next()
		if err != nil {
			streamErr = err
			break
		}
		if !ok {
			break
		}
	}
	// The stream either observed the cancellation mid-flight or won the
	// race and finished; both leave Close free to return.
	if streamErr != nil && !errors.Is(streamErr, context.Canceled) {
		t.Fatalf("stream ended with %v, want context.Canceled or exhaustion", streamErr)
	}
	s.Close()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the stream unwound")
	}
}

func TestCloseInvalidatesPlanCache(t *testing.T) {
	db := closableDB(t)
	const q = "select count(*) from part"
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PlanCacheHits == 0 {
		t.Fatal("second execution missed the plan cache")
	}
	if db.plans.len() == 0 {
		t.Fatal("plan cache empty before close")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if n := db.plans.len(); n != 0 {
		t.Fatalf("plan cache holds %d entries after Close, want 0", n)
	}
}

func TestCloseIdempotentAndConcurrent(t *testing.T) {
	db := closableDB(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := db.Close(); err != nil {
				t.Errorf("concurrent close: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatalf("close after close: %v", err)
	}
}

// TestStartPanicReleasesDatabase: a panic inside the engine — here
// over a row shorter than its schema, smuggled past Table.Append's arity
// check — propagates to the caller (the server session recovers it),
// but the statement's in-flight registration is still released, so
// Database.Close returns. The sort panics inside exec.Start, which Query
// and Stream share; the projection panics mid-drain, where Query
// releases by itself and a Stream's caller closes it, as the server
// session does.
func TestStartPanicReleasesDatabase(t *testing.T) {
	for _, tc := range []struct{ name, query string }{
		{"start", "select a, b from t order by b"},
		{"drain", "select b + 1 from t"},
	} {
		for _, via := range []string{"Query", "Stream"} {
			t.Run(tc.name+"/"+via, func(t *testing.T) {
				db := Open()
				if err := db.CreateTable("t", []Column{{"a", "int"}, {"b", "int"}}, nil); err != nil {
					t.Fatal(err)
				}
				tab, err := db.cat.Lookup("t")
				if err != nil {
					t.Fatal(err)
				}
				tab.Rows = append(tab.Rows, types.Row{types.NewInt(1)})
				var s *Stream
				func() {
					defer func() {
						if recover() == nil {
							t.Fatal("the malformed row did not panic")
						}
					}()
					if via == "Query" {
						db.Query(tc.query)
						return
					}
					if s, err = db.Stream(tc.query); err == nil {
						s.Next()
					}
				}()
				if s != nil {
					s.Close()
				}
				closed := make(chan struct{})
				go func() {
					db.Close()
					close(closed)
				}()
				select {
				case <-closed:
				case <-time.After(5 * time.Second):
					t.Fatal("Database.Close hung: the panicked statement kept its in-flight registration")
				}
			})
		}
	}
}
