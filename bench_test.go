// Benchmarks regenerating the paper's evaluation, one testing.B target
// per reported series:
//
//   - BenchmarkFigure8/*: Q1–Q4, each with and without GApply (the bar
//     pairs behind Figure 8's speedup ratios);
//   - BenchmarkTable1/*: each transformation rule's query with the rule
//     off and on (the ratio pairs behind Table 1's benefit columns);
//   - BenchmarkPartition/*: hash vs sort partitioning (§3's two
//     Partition-phase implementations; §5.2 reports they are comparable);
//   - BenchmarkClientSimulation: §5.1.1's client-side GApply simulation
//     against the server-side operator.
//
// cmd/bench prints the same measurements as the paper's tables; these
// benchmarks expose them to `go test -bench`.
package gapplydb_test

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"gapplydb"
	"gapplydb/experiments"
	"gapplydb/xmlpub"
)

// benchScale is the TPC-H scale factor for benchmarks; override with
// GAPPLYDB_BENCH_SF.
func benchScale() float64 {
	if s := os.Getenv("GAPPLYDB_BENCH_SF"); s != "" {
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return f
		}
	}
	return 0.005
}

var (
	benchOnce sync.Once
	benchDB   *gapplydb.Database
)

func benchDatabase(b *testing.B) *gapplydb.Database {
	b.Helper()
	benchOnce.Do(func() {
		db, err := gapplydb.OpenTPCH(benchScale())
		if err != nil {
			panic(err)
		}
		benchDB = db
	})
	return benchDB
}

func runQuery(b *testing.B, q string, opts ...gapplydb.QueryOption) {
	b.Helper()
	db := benchDatabase(b)
	// Plan once; executing the optimized plan is what the paper times.
	if _, err := db.Query(q, opts...); err != nil {
		b.Fatalf("%v\nquery: %s", err, q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------------ Figure 8

const benchQ4GApply = `
	select gapply(select p_name, p_retailprice from g
	              where p_retailprice > (select avg(p_retailprice) from g))
	from partsupp, part
	where ps_partkey = p_partkey
	group by ps_suppkey, p_size : g`

const benchQ4Flat = `
	select tmp.k1, p_name, p_size, p_retailprice
	from (select ps_suppkey, p_size, avg(p_retailprice)
	      from partsupp, part
	      where p_partkey = ps_partkey
	      group by ps_suppkey, p_size) as tmp(k1, k2, avgprice),
	     partsupp, part
	where ps_partkey = p_partkey
	  and ps_suppkey = tmp.k1
	  and p_size = tmp.k2
	  and p_retailprice > tmp.avgprice
	order by tmp.k1`

func BenchmarkFigure8(b *testing.B) {
	cases := []struct {
		name          string
		without, with string
	}{
		{"Q1", xmlpub.Q1().SortedOuterUnionSQL(), xmlpub.Q1().GApplySQL()},
		{"Q2", xmlpub.Q2().SortedOuterUnionSQL(), xmlpub.Q2().GApplySQL()},
		{"Q3", xmlpub.Q3(0.9, 1.1).SortedOuterUnionSQL(), xmlpub.Q3(0.9, 1.1).GApplySQL()},
		{"Q4", benchQ4Flat, benchQ4GApply},
	}
	for _, c := range cases {
		b.Run(c.name+"/WithoutGApply", func(b *testing.B) { runQuery(b, c.without) })
		b.Run(c.name+"/WithGApply", func(b *testing.B) { runQuery(b, c.with) })
		// The parallel execution phase, pinned to fixed degrees so runs on
		// different hardware stay comparable (WithGApply above uses the
		// default, GOMAXPROCS). Compare Dop1 vs Dop4 at GAPPLYDB_BENCH_SF
		// ≥ 0.02 to see the per-group fan-out win.
		for _, dop := range []int{1, 2, 4} {
			dop := dop
			b.Run(fmt.Sprintf("%s/WithGApplyDop%d", c.name, dop), func(b *testing.B) {
				runQuery(b, c.with, gapplydb.WithDOP(dop))
			})
		}
	}
}

// ------------------------------------------------------------- Table 1

func BenchmarkTable1(b *testing.B) {
	type armed struct {
		name     string
		query    string
		rule     string
		forced   bool
		bothOpts []gapplydb.QueryOption
	}
	cases := []armed{
		{
			name: "SelectionBeforeGApply",
			query: `select gapply(select p_name, p_retailprice from g where p_retailprice > 2040)
				from partsupp, part where ps_partkey = p_partkey group by ps_suppkey : g`,
			rule: "selection-before-gapply",
		},
		{
			name: "ProjectionBeforeGApply",
			query: `select gapply(select p_name, p_retailprice, null from g
					union all select null, null, avg(p_retailprice) from g)
				from partsupp, part, supplier, nation
				where ps_partkey = p_partkey and ps_suppkey = s_suppkey and s_nationkey = n_nationkey
				group by ps_suppkey : g`,
			rule:     "projection-before-gapply",
			bothOpts: []gapplydb.QueryOption{gapplydb.WithoutRule("gapply-to-groupby")},
		},
		{
			name: "GApplyToGroupby",
			query: `select gapply(select avg(p_retailprice), min(p_retailprice),
					max(p_retailprice), count(*) from g)
				from partsupp, part where ps_partkey = p_partkey group by ps_suppkey, p_size : g`,
			rule: "gapply-to-groupby",
		},
		{
			name:   "GroupSelectionExists",
			query:  xmlpub.ExpensiveSuppliers(2050).GApplySQL(),
			rule:   "group-selection-exists",
			forced: true,
		},
		{
			name:     "GroupSelectionAggregate",
			query:    xmlpub.RichSuppliers(1495).GApplySQL(),
			rule:     "group-selection-aggregate",
			forced:   true,
			bothOpts: []gapplydb.QueryOption{gapplydb.WithoutRule("projection-before-gapply")},
		},
		{
			name: "InvariantGrouping",
			query: `select gapply(select s_name, p_name, p_retailprice from g
					where p_retailprice = (select min(p_retailprice) from g))
				from partsupp, part, supplier
				where ps_partkey = p_partkey and ps_suppkey = s_suppkey
				group by s_suppkey : g`,
			rule:     "invariant-grouping",
			forced:   true,
			bothOpts: []gapplydb.QueryOption{gapplydb.WithoutRule("projection-before-gapply")},
		},
	}
	for _, c := range cases {
		withoutOpts := append([]gapplydb.QueryOption{gapplydb.WithoutRule(c.rule)}, c.bothOpts...)
		withOpts := append([]gapplydb.QueryOption{}, c.bothOpts...)
		if c.forced {
			withOpts = append(withOpts, gapplydb.ForceRule(c.rule))
		}
		b.Run(c.name+"/RuleOff", func(b *testing.B) { runQuery(b, c.query, withoutOpts...) })
		b.Run(c.name+"/RuleOn", func(b *testing.B) { runQuery(b, c.query, withOpts...) })
	}
}

// ------------------------------------------------- partition strategies

func BenchmarkPartition(b *testing.B) {
	q := xmlpub.Q1().GApplySQL()
	b.Run("Hash", func(b *testing.B) { runQuery(b, q, gapplydb.WithPartition("hash")) })
	b.Run("Sort", func(b *testing.B) { runQuery(b, q, gapplydb.WithPartition("sort")) })
}

// --------------------------------------------- spool and plan cache

// BenchmarkSpool pairs a join-heavy GApply query with the invariant-
// subtree spool off and on at dop 1 (the ISSUE's ≥1.5× acceptance
// measurement). Run with -benchmem: the spooled arm also shows the
// allocation savings from the per-group key slab and the hash-join
// probe scratch.
func BenchmarkSpool(b *testing.B) {
	q := experiments.SpoolQueries()[0].SQL
	b.Run("Off", func(b *testing.B) {
		runQuery(b, q, gapplydb.WithDOP(1), gapplydb.WithoutSpooling())
	})
	b.Run("On", func(b *testing.B) {
		runQuery(b, q, gapplydb.WithDOP(1))
	})
}

// BenchmarkPlanCache measures the whole Query call (parse + bind +
// optimize + execute): Cold invalidates the statement cache each
// iteration, Warm hits it.
func BenchmarkPlanCache(b *testing.B) {
	db := benchDatabase(b)
	q := benchQ4GApply
	b.Run("Cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db.InvalidatePlanCache()
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Warm", func(b *testing.B) {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ------------------------------------------- §5.1.1 client simulation

func BenchmarkClientSimulation(b *testing.B) {
	b.Run("ServerSideGApply", func(b *testing.B) { runQuery(b, benchQ4GApply) })
	// The full client-side loop (materialize, re-sort, per-group rebind)
	// is measured by cmd/bench -experiment clientsim; here we benchmark
	// its dominant component, the sorted outer query it materializes.
	b.Run("ClientOuterMaterialization", func(b *testing.B) {
		runQuery(b, `select ps_suppkey, p_size, p_name, p_retailprice
			from partsupp, part where ps_partkey = p_partkey
			order by ps_suppkey, p_size`)
	})
}
