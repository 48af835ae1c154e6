package gapplydb

import (
	"context"
	"fmt"
	"strings"
	"time"

	"gapplydb/internal/core"
	"gapplydb/internal/exec"
	"gapplydb/internal/opt"
	"gapplydb/internal/sql"
	"gapplydb/internal/stats"
)

// RuleApplication records one optimizer rule application considered
// while planning a query: which rule, on which optimization pass, the
// plan shape before and after (compact summaries), and — for cost-based
// rules — the estimated costs that decided it. Rejected cost-based
// applications are kept (Accepted=false) so a trace shows not just what
// the optimizer did but what it declined to do.
type RuleApplication struct {
	Rule       string
	Pass       int
	CostBased  bool
	Forced     bool
	Accepted   bool
	CostBefore float64
	CostAfter  float64
	Before     string
	After      string
}

func toTrace(in []opt.RuleApplication) []RuleApplication {
	if in == nil {
		return nil
	}
	out := make([]RuleApplication, len(in))
	for i, a := range in {
		out[i] = RuleApplication{
			Rule: a.Rule, Pass: a.Pass,
			CostBased: a.CostBased, Forced: a.Forced, Accepted: a.Accepted,
			CostBefore: a.CostBefore, CostAfter: a.CostAfter,
			Before: a.Before, After: a.After,
		}
	}
	return out
}

// String renders one trace entry on a single line.
func (a RuleApplication) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[pass %d] %s", a.Pass, a.Rule)
	if a.CostBased {
		fmt.Fprintf(&b, " cost %.0f -> %.0f", a.CostBefore, a.CostAfter)
	}
	switch {
	case a.Forced:
		b.WriteString(" (forced)")
	case !a.Accepted:
		b.WriteString(" (rejected)")
	}
	fmt.Fprintf(&b, ": %s => %s", a.Before, a.After)
	return b.String()
}

// Explanation is the report ExplainPlan/ExplainAnalyze build: the
// rendered plan tree (annotated per node with the optimizer's estimates
// and, after ANALYZE, the measured actuals), the plan fingerprint, the
// root estimate, and the optimizer's rule trace.
type Explanation struct {
	// Plan is the indented operator tree. Every node carries
	// "(rows=<est> cost=<est>)"; after ANALYZE also
	// "(actual rows=<n> loops=<n> time=<d>)".
	Plan string
	// PlanHash fingerprints the plan shape (FNV-1a of the canonical
	// rendering): two queries with equal hashes run identical plans.
	PlanHash string
	// EstimatedRows/EstimatedCost are the optimizer's root estimates.
	EstimatedRows float64
	EstimatedCost float64
	// Trace is the optimizer's rule application log, in order.
	Trace []RuleApplication
	// Analyzed reports whether the query was executed (EXPLAIN ANALYZE).
	Analyzed bool
	// Result holds the executed query's result when Analyzed (the rows
	// the caller would have gotten without EXPLAIN), nil otherwise.
	Result *Result
}

// String renders the full report: the annotated tree, the root
// estimates and plan hash, execution totals when analyzed, and the
// optimizer trace.
func (e *Explanation) String() string {
	var b strings.Builder
	b.WriteString(e.Plan)
	fmt.Fprintf(&b, "estimated rows: %.0f  estimated cost: %.0f\n", e.EstimatedRows, e.EstimatedCost)
	fmt.Fprintf(&b, "plan hash: %s\n", e.PlanHash)
	if e.Analyzed && e.Result != nil {
		fmt.Fprintf(&b, "execution time: %s  rows: %d\n", e.Result.Elapsed.Round(time.Microsecond), len(e.Result.Rows))
	}
	if len(e.Trace) > 0 {
		b.WriteString("optimizer trace:\n")
		for _, a := range e.Trace {
			fmt.Fprintf(&b, "  %s\n", a)
		}
	}
	return b.String()
}

// planResult packages the report as a query Result (one "QUERY PLAN"
// column, one row per line) — what Query returns for a statement with
// an EXPLAIN prefix.
func (e *Explanation) planResult() *Result {
	text := e.String()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	out := &Result{
		Columns: []string{"QUERY PLAN"},
		Rows:    make([][]any, len(lines)),
		Trace:   e.Trace,
		text:    text,
	}
	if e.Result != nil {
		out.Elapsed = e.Result.Elapsed
		out.Stats = e.Result.Stats
		out.TraceID = e.Result.TraceID
	}
	for i, l := range lines {
		out.Rows[i] = []any{l}
	}
	return out
}

// ExplainPlan compiles the statement and reports the optimized plan
// without executing it. The query may, but need not, carry an EXPLAIN
// prefix.
func (db *Database) ExplainPlan(query string, options ...QueryOption) (*Explanation, error) {
	return db.explain(context.Background(), query, options, sql.ExplainPlan)
}

// ExplainAnalyze compiles AND executes the statement with per-operator
// instrumentation, reporting the plan annotated with actual row counts,
// loop counts and inclusive wall time next to the estimates. The
// executed rows are available via the returned Explanation's Result.
func (db *Database) ExplainAnalyze(query string, options ...QueryOption) (*Explanation, error) {
	return db.ExplainAnalyzeContext(context.Background(), query, options...)
}

// ExplainAnalyzeContext is ExplainAnalyze under a caller-supplied
// context: the instrumented execution obeys the same cancellation,
// deadline and budget rules as QueryContext.
func (db *Database) ExplainAnalyzeContext(ctx context.Context, query string, options ...QueryOption) (*Explanation, error) {
	return db.explain(ctx, query, options, sql.ExplainAnalyze)
}

// explain starts the statement routed to mode and builds its report.
func (db *Database) explain(ctx context.Context, query string, options []QueryOption, mode sql.ExplainMode) (*Explanation, error) {
	s, err := db.start(ctx, query, options, mode)
	if err != nil {
		return nil, err
	}
	return s.explanation()
}

// explanation builds the report for a statement start routed to EXPLAIN,
// draining it through the same path as Query first when it is analyzed.
func (s *Stream) explanation() (*Explanation, error) {
	var res *Result
	var prof *exec.Profile
	if s.mode == sql.ExplainAnalyze {
		r, err := s.result()
		if err != nil {
			return nil, err
		}
		res, prof = r, s.ectx.Prof
	}
	c := s.c
	est := stats.NewEstimator(s.db.st).EstimateAll(c.plan)
	annot := func(n core.Node) string {
		e := est[n]
		s := fmt.Sprintf("(rows=%.0f cost=%.0f)", e.Rows, e.Cost)
		// Order properties: which ordering the node's output provides
		// (the planner's interesting-orders currency), and whether an
		// OrderBy's sort work was elided because the input already
		// provides it. The [elided] marker on the operator line itself
		// comes from Describe; "sort elided" here names the why.
		if ord := core.ProvidedOrdering(n); len(ord) > 0 {
			s += fmt.Sprintf(" (provides: [%s])", core.FormatOrdering(ord))
		}
		if ob, isOrderBy := n.(*core.OrderBy); isOrderBy && ob.Elided {
			s += " (sort elided)"
		}
		if prof != nil {
			a := prof.Stats(n)
			s += fmt.Sprintf(" (actual rows=%d loops=%d time=%s)", a.Rows, a.Opens, a.Time.Round(time.Microsecond))
			if a.SpoolBuilds > 0 || a.SpoolHits > 0 {
				// This subtree was spooled: actuals above are the single
				// real execution; re-Opens replayed the materialization.
				s += fmt.Sprintf(" (spool builds=%d hits=%d bytes=%d)", a.SpoolBuilds, a.SpoolHits, a.SpoolBytes)
			}
		}
		return s
	}
	root := est[c.plan]
	return &Explanation{
		Plan:          core.FormatAnnotated(c.plan, annot),
		PlanHash:      core.PlanHash(c.plan),
		EstimatedRows: root.Rows,
		EstimatedCost: root.Cost,
		Trace:         toTrace(c.trace),
		Analyzed:      res != nil,
		Result:        res,
	}, nil
}

// recordExecMetrics folds one execution's counters into the database's
// lifetime metrics registry.
func (db *Database) recordExecMetrics(c exec.Counters) {
	db.reg.Counter("rows_scanned").Add(c.RowsScanned)
	db.reg.Counter("groups_formed").Add(c.Groups)
	db.reg.Counter("inner_execs").Add(c.InnerExecs)
	db.reg.Counter("serial_group_execs").Add(c.SerialGroupExecs)
	db.reg.Counter("parallel_group_execs").Add(c.ParallelGroupExecs)
	db.reg.Counter("apply_execs").Add(c.ApplyExecs)
	db.reg.Counter("apply_cache_hits").Add(c.ApplyCacheHits)
	db.reg.Counter("join_probes").Add(c.JoinProbes)
	db.reg.Counter("spool_builds").Add(c.SpoolBuilds)
	db.reg.Counter("spool_hits").Add(c.SpoolHits)
	// PlanCacheHits is intentionally NOT folded here: the registry's
	// plan_cache_hits/plan_cache_misses are counted once at compile time,
	// and an execution-side add would double-count hits.
}
