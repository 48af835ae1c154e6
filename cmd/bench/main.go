// Command bench regenerates the paper's evaluation: Figure 8 (speedup
// of Q1–Q4 with GApply over the sorted-outer-union / flat-SQL plans),
// Table 1 (effect of each transformation rule), and the §5.1.1
// client-side-simulation comparison, plus the spool, plan-cache and
// ordered-index tables.
//
// Usage:
//
//	bench [-sf 0.01] [-repeats 3] [-experiment all|figure8|table1|clientsim|spool|plancache|order|none]
//	bench -json out.json     # also write the benchmark artifact: spool and
//	                         # plan-cache measurements plus per-query
//	                         # observability records (plan hash, rule trace,
//	                         # analyzed plan, stats)
//	bench -experiment none -order BENCH_9.json -order-baseline testdata/order_baseline.json
//	                         # ordered-index comparison; exits non-zero if a
//	                         # speedup falls below its checked-in floor
//
// The wire-level checks (remote and sharded differentials, the corpus
// conformance pass, the client soak) are go tests; the serve and
// sharded latency numbers come from perfbench.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"gapplydb"
	"gapplydb/experiments"
)

func main() {
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor (1.0 = full size)")
	repeats := flag.Int("repeats", 3, "runs per measurement (min is kept)")
	exp := flag.String("experiment", "all", "figure8 | table1 | clientsim | spool | plancache | order | none | all")
	dop := flag.Int("dop", 0, "GApply degree of parallelism (0 = GOMAXPROCS, 1 = serial)")
	timeout := flag.Duration("timeout", 0, "per-query wall-clock limit (0 = unlimited); a query past it fails instead of hanging the run")
	jsonPath := flag.String("json", "", "write per-query JSON reports (plan hash, trace, operator timings) to this file")
	orderPath := flag.String("order", "", "measure ordered-index plans against WithoutIndexes at dop 1 and write the comparison artifact (e.g. BENCH_9.json) to this file")
	orderBaseline := flag.String("order-baseline", "", "with -order: JSON file of per-query minimum speedups; exit non-zero if any measured speedup falls below its floor")
	flag.Parse()

	experiments.Repeats = *repeats
	experiments.DOP = *dop
	experiments.Timeout = *timeout
	fmt.Printf("loading TPC-H at scale factor %g...\n", *sf)
	start := time.Now()
	db, err := gapplydb.OpenTPCH(*sf)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded in %v\n\n", time.Since(start).Round(time.Millisecond))

	run := func(name string, f func(*gapplydb.Database) error) {
		if *exp != "all" && *exp != name {
			return
		}
		if err := f(db); err != nil {
			fatal(err)
		}
	}
	run("figure8", printFigure8)
	run("table1", printTable1)
	run("clientsim", printClientSim)
	run("spool", printSpool)
	run("plancache", printPlanCache)
	if *orderPath == "" {
		// With -order the experiment runs once inside writeOrder; without
		// it, -experiment order (or all) prints the table alone.
		run("order", printOrder)
	}

	if *jsonPath != "" {
		if err := writeReports(db, *jsonPath); err != nil {
			fatal(err)
		}
	}
	if *orderPath != "" {
		if err := writeOrder(db, *orderPath, *orderBaseline); err != nil {
			fatal(err)
		}
	}
}

// orderJSON is an OrderRow with its derived speedup serialized.
type orderJSON struct {
	experiments.OrderRow
	Speedup float64
}

// measureOrder runs the order-pass workload and prints the table.
func measureOrder(db *gapplydb.Database) ([]experiments.OrderRow, error) {
	fmt.Println("== Ordered indexes: index-served plans vs WithoutIndexes (dop 1) ==")
	fmt.Println("(speedup = no-index elapsed ÷ indexed elapsed; outputs are verified")
	fmt.Println(" byte-identical before either timing is reported)")
	fmt.Println()
	rows, err := experiments.Order(db)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%-14s %14s %14s %10s %10s\n", "query", "no index", "indexed", "speedup", "rows")
	for _, r := range rows {
		fmt.Printf("%-14s %14v %14v %9.2fx %10d\n",
			r.Query, r.NoIndex.Round(time.Microsecond), r.Indexed.Round(time.Microsecond), r.Speedup(), r.Rows)
	}
	fmt.Println()
	return rows, nil
}

func printOrder(db *gapplydb.Database) error {
	_, err := measureOrder(db)
	return err
}

// writeOrder measures the order-pass workload, writes the artifact, and
// — when a baseline of per-query minimum speedups is supplied — fails
// the run on any regression below a floor.
func writeOrder(db *gapplydb.Database, path, baselinePath string) error {
	rows, err := measureOrder(db)
	if err != nil {
		return err
	}
	var out struct{ Order []orderJSON }
	for _, r := range rows {
		out.Order = append(out.Order, orderJSON{OrderRow: r, Speedup: r.Speedup()})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d order comparisons to %s\n", len(rows), path)
	if baselinePath == "" {
		return nil
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base struct {
		MinSpeedup map[string]float64 `json:"min_speedup"`
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("order baseline %s: %w", baselinePath, err)
	}
	byName := make(map[string]experiments.OrderRow, len(rows))
	for _, r := range rows {
		byName[r.Query] = r
	}
	var failures []string
	for name, floor := range base.MinSpeedup {
		r, ok := byName[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but not measured", name))
			continue
		}
		if r.Speedup() < floor {
			failures = append(failures, fmt.Sprintf("%s: speedup %.2fx below floor %.2fx", name, r.Speedup(), floor))
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "order regression:", f)
		}
		return fmt.Errorf("%d ordered-index regression(s) against %s", len(failures), baselinePath)
	}
	fmt.Printf("all %d baseline floors in %s hold\n", len(base.MinSpeedup), baselinePath)
	return nil
}

// spoolJSON is a SpoolRow with its derived speedup serialized, so the
// artifact diffs without recomputation.
type spoolJSON struct {
	experiments.SpoolRow
	Speedup float64
}

// planCacheJSON is a PlanCacheRow with its derived benefit serialized.
type planCacheJSON struct {
	experiments.PlanCacheRow
	Benefit float64
}

// writeReports writes the benchmark artifact: the spooling and plan-
// cache measurements (speedup/benefit included), then the per-query
// observability records for the whole suite under EXPLAIN ANALYZE.
func writeReports(db *gapplydb.Database, path string) error {
	fmt.Printf("collecting benchmark artifact...\n")
	spool, err := experiments.Spool(db)
	if err != nil {
		return err
	}
	pc, err := experiments.PlanCache(db)
	if err != nil {
		return err
	}
	reports, err := experiments.Reports(db)
	if err != nil {
		return err
	}
	out := struct {
		Spool     []spoolJSON
		PlanCache []planCacheJSON
		Queries   []experiments.QueryReport
	}{Queries: reports}
	for _, r := range spool {
		out.Spool = append(out.Spool, spoolJSON{SpoolRow: r, Speedup: r.Speedup()})
	}
	for _, r := range pc {
		out.PlanCache = append(out.PlanCache, planCacheJSON{PlanCacheRow: r, Benefit: r.Benefit()})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d spool rows, %d plan-cache rows, %d query reports to %s\n",
		len(out.Spool), len(out.PlanCache), len(reports), path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func printFigure8(db *gapplydb.Database) error {
	fmt.Println("== Figure 8: speedup using GApply ==")
	fmt.Println("(ratio of elapsed time without GApply to elapsed time with GApply;")
	fmt.Println(" the paper reports ratios up to ≈2 on SQL Server 2000 + 5GB TPC-H)")
	fmt.Println()
	rows, err := experiments.Figure8(db)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %14s %14s %10s\n", "query", "without", "with GApply", "speedup")
	for _, r := range rows {
		fmt.Printf("%-6s %14v %14v %9.2fx\n",
			r.Query, r.Without.Round(time.Microsecond), r.With.Round(time.Microsecond), r.Speedup())
	}
	fmt.Println()
	return nil
}

func printTable1(db *gapplydb.Database) error {
	fmt.Println("== Table 1: effect of transformation rules ==")
	fmt.Println("(benefit = elapsed without the rule ÷ elapsed with it, per sweep point)")
	fmt.Println()
	rows, err := experiments.Table1(db)
	if err != nil {
		return err
	}
	fmt.Printf("%-18s %-34s %12s %12s %14s\n",
		"Rule Class", "Rule", "Max Benefit", "Avg Benefit", "Avg over Wins")
	for _, r := range rows {
		fmt.Printf("%-18s %-34s %12.2f %12.2f %14.2f\n",
			r.RuleClass, r.Rule, r.Max(), r.Avg(), r.AvgOverWins())
	}
	fmt.Println()
	fmt.Println("-- sweep detail --")
	for _, r := range rows {
		fmt.Printf("%s:\n", r.Rule)
		for _, p := range r.Points {
			fmt.Printf("    %-24s without=%-12v with=%-12v benefit=%.2f\n",
				p.Param, p.Without.Round(time.Microsecond), p.With.Round(time.Microsecond), p.Benefit())
		}
	}
	fmt.Println()
	return nil
}

func printSpool(db *gapplydb.Database) error {
	fmt.Println("== Invariant-subtree spooling (join-heavy GApply inners) ==")
	fmt.Println("(speedup = elapsed with the spool off ÷ elapsed with it on;")
	fmt.Println(" builds/hits show one materialization serving every group)")
	fmt.Println()
	rows, err := experiments.Spool(db)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %14s %14s %10s %8s %8s %14s %12s\n",
		"query", "spool off", "spool on", "speedup", "builds", "hits", "scans off", "scans on")
	for _, r := range rows {
		fmt.Printf("%-6s %14v %14v %9.2fx %8d %8d %14d %12d\n",
			r.Query, r.Off.Round(time.Microsecond), r.On.Round(time.Microsecond),
			r.Speedup(), r.Builds, r.Hits, r.ScansOff, r.ScansOn)
	}
	fmt.Println()
	return nil
}

func printPlanCache(db *gapplydb.Database) error {
	fmt.Println("== Statement plan cache: cold vs warm compile ==")
	fmt.Println("(total wall time per statement; warm runs skip parse/bind/optimize)")
	fmt.Println()
	rows, err := experiments.PlanCache(db)
	if err != nil {
		return err
	}
	fmt.Printf("%-6s %14s %14s %10s\n", "query", "cold", "warm", "benefit")
	for _, r := range rows {
		fmt.Printf("%-6s %14v %14v %9.2fx\n",
			r.Query, r.Cold.Round(time.Microsecond), r.Warm.Round(time.Microsecond), r.Benefit())
	}
	fmt.Println()
	return nil
}

func printClientSim(db *gapplydb.Database) error {
	fmt.Println("== §5.1.1: client-side simulation overhead (Q4) ==")
	res, err := experiments.ClientSim(db)
	if err != nil {
		return err
	}
	fmt.Printf("server-side GApply:     %v\n", res.ServerSide.Round(time.Microsecond))
	fmt.Printf("client-side simulation: %v\n", res.ClientSide.Round(time.Microsecond))
	fmt.Printf("overhead: %.2fx (paper: ≈1.2x; >1 confirms the simulation is conservative)\n\n", res.Overhead())
	return nil
}
