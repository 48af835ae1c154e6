package gapplydb_test

import (
	"regexp"
	"strings"
	"testing"

	"gapplydb"
	"gapplydb/experiments"
	"gapplydb/xmlpub"
)

// TestInstrumentationNeutral is the observability layer's no-Heisenberg
// guarantee: tracing a query, which turns on per-operator profiling,
// must not change any observable output — rows (byte-identical, order
// included), executor statistics, or the published XML — at serial and
// parallel degrees. Only the traced query carries a trace ID. Run under
// -race this also exercises the profile's parallel merge path on the
// full evaluation workload.
func TestInstrumentationNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("differential battery skipped in -short mode")
	}
	db := integDatabase(t)
	for _, sq := range experiments.SuiteQueries() {
		sq := sq
		t.Run(sq.Name, func(t *testing.T) {
			for _, dop := range []int{1, 8} {
				plain, err := db.Query(sq.SQL, gapplydb.WithDOP(dop))
				if err != nil {
					t.Fatalf("dop %d: %v", dop, err)
				}
				inst, err := db.Query(sq.SQL, gapplydb.WithDOP(dop), gapplydb.WithTracing())
				if err != nil {
					t.Fatalf("dop %d traced: %v", dop, err)
				}
				if !plain.TraceID.IsZero() || inst.TraceID.IsZero() {
					t.Fatalf("dop %d: trace IDs untraced=%s traced=%s, want only the traced one set",
						dop, plain.TraceID, inst.TraceID)
				}
				if d := firstDiff(ordered(plain), ordered(inst)); d != "" {
					t.Fatalf("dop %d: instrumentation changed the rows: %s", dop, d)
				}
				// The second run of the same statement text is a plan-cache
				// hit; that is a property of repetition, not instrumentation,
				// so compare the executor stats with the field normalized.
				ps, is := plain.Stats, inst.Stats
				ps.PlanCacheHits, is.PlanCacheHits = 0, 0
				if ps != is {
					t.Fatalf("dop %d: instrumentation changed the stats:\nplain: %+v\ninst:  %+v",
						dop, ps, is)
				}
			}
		})
	}
}

// TestInstrumentationNeutralXML extends the neutrality check to the end
// product: the published document is byte-identical when traced.
func TestInstrumentationNeutralXML(t *testing.T) {
	db := integDatabase(t)
	var want string
	for _, instrument := range []bool{false, true} {
		opts := []gapplydb.QueryOption{gapplydb.WithDOP(8)}
		if instrument {
			opts = append(opts, gapplydb.WithTracing())
		}
		var buf stringsBuilder
		if _, err := xmlpub.Publish(db, xmlpub.Q1(), xmlpub.GApply, &buf, opts...); err != nil {
			t.Fatal(err)
		}
		doc := buf.String()
		if !instrument {
			want = doc
			continue
		}
		if doc != want {
			t.Fatal("tracing changed the published XML document")
		}
	}
	if want == "" {
		t.Fatal("empty document")
	}
}

// stripTimings removes the wall-clock annotations from an EXPLAIN
// ANALYZE report, leaving only its deterministic content.
func stripTimings(s string) string {
	s = regexp.MustCompile(` time=[^)]*\)`).ReplaceAllString(s, ")")
	s = regexp.MustCompile(`execution time: \S+`).ReplaceAllString(s, "execution time: X")
	return s
}

// TestExplainAnalyzeDOPInvariant pins the cross-degree contract: the
// EXPLAIN ANALYZE report — actual per-operator row and loop counts
// included — is identical at dop 1 and dop 8 except for wall times,
// because the parallel execution phase merges worker profiles node-by-
// node in partition order.
func TestExplainAnalyzeDOPInvariant(t *testing.T) {
	db := integDatabase(t)
	queries := []struct{ name, suite string }{
		{"Q1", "figure8/Q1/with"},
		{"Q4", "figure8/Q4/with"},
	}
	for _, q := range queries {
		q := q
		t.Run(q.name, func(t *testing.T) {
			sql := figure8Query(t, q.suite)
			serial, err := db.ExplainAnalyze(sql, gapplydb.WithDOP(1))
			if err != nil {
				t.Fatal(err)
			}
			par, err := db.ExplainAnalyze(sql, gapplydb.WithDOP(8))
			if err != nil {
				t.Fatal(err)
			}
			a, b := stripTimings(serial.String()), stripTimings(par.String())
			if a != b {
				t.Errorf("EXPLAIN ANALYZE content differs across dop:\n--- dop 1 ---\n%s--- dop 8 ---\n%s", a, b)
			}
			if !strings.Contains(serial.Plan, "actual rows=") {
				t.Errorf("analyze annotations missing:\n%s", serial.Plan)
			}
		})
	}
}

// TestExplainStatementRouting checks Query's EXPLAIN [ANALYZE] prefix
// handling end to end: a single QUERY PLAN column, the report as rows,
// and the rule trace exposed on the Result.
func TestExplainStatementRouting(t *testing.T) {
	db := integDatabase(t)
	sql := figure8Query(t, "figure8/Q1/with")

	res, err := db.Query("explain " + sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "QUERY PLAN" {
		t.Fatalf("columns = %v", res.Columns)
	}
	text := res.String()
	for _, want := range []string{"GApply", "plan hash:", "optimizer trace:"} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN result missing %q:\n%s", want, text)
		}
	}
	if len(res.Trace) == 0 {
		t.Error("EXPLAIN result has no rule trace")
	}
	if strings.Contains(text, "actual rows=") {
		t.Error("plain EXPLAIN must not execute the query")
	}

	res, err = db.Query("explain analyze " + sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.String(), "actual rows=") {
		t.Errorf("EXPLAIN ANALYZE result lacks actuals:\n%s", res.String())
	}
	if res.Stats.Groups == 0 {
		t.Errorf("EXPLAIN ANALYZE must surface execution stats, got %+v", res.Stats)
	}
}

// TestMetricsAccumulate checks the Database-level registry: counters
// fold in each execution's work and the latency histograms record one
// observation per phase.
func TestMetricsAccumulate(t *testing.T) {
	db, err := gapplydb.OpenTPCH(0.001)
	if err != nil {
		t.Fatal(err)
	}
	sql := figure8Query(t, "figure8/Q1/with")
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.Counters["queries"] != 1 {
		t.Errorf("queries = %d, want 1", m.Counters["queries"])
	}
	if m.Counters["groups_formed"] != res.Stats.Groups {
		t.Errorf("groups_formed = %d, want %d", m.Counters["groups_formed"], res.Stats.Groups)
	}
	split := m.Counters["serial_group_execs"] + m.Counters["parallel_group_execs"]
	if split != res.Stats.Groups {
		t.Errorf("group-exec split %d, want %d", split, res.Stats.Groups)
	}
	if m.Histograms["execute_latency"].Count != 1 || m.Histograms["optimize_latency"].Count != 1 {
		t.Errorf("latency histograms = %+v", m.Histograms)
	}
	if _, err := db.Query("select broken from"); err == nil {
		t.Fatal("expected parse error")
	}
	if got := db.Metrics().Counters["query_errors"]; got != 1 {
		t.Errorf("query_errors = %d, want 1", got)
	}
	db.PublishMetrics("gapplydb_test_metrics")
	db.PublishMetrics("gapplydb_test_metrics") // idempotent
}
