package gapplydb

import (
	"strings"
	"testing"
)

// fixture builds the canonical tiny data set through the public API.
func fixture(t *testing.T) *Database {
	t.Helper()
	db := Open()
	if err := db.CreateTable("supplier",
		[]Column{{"s_suppkey", "int"}, {"s_name", "string"}},
		[]string{"s_suppkey"}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("part",
		[]Column{{"p_partkey", "int"}, {"p_name", "string"}, {"p_retailprice", "float"}, {"p_brand", "string"}},
		[]string{"p_partkey"}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("partsupp",
		[]Column{{"ps_partkey", "int"}, {"ps_suppkey", "int"}},
		[]string{"ps_partkey", "ps_suppkey"},
		ForeignKey{[]string{"ps_partkey"}, "part", []string{"p_partkey"}},
		ForeignKey{[]string{"ps_suppkey"}, "supplier", []string{"s_suppkey"}}); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.Insert("supplier", []any{1, "alpha"}, []any{2, "beta"}, []any{3, "gamma"}))
	must(db.Insert("part",
		[]any{1, "bolt", 10.0, "Brand#A"},
		[]any{2, "nut", 20.0, "Brand#B"},
		[]any{3, "washer", 30.0, "Brand#A"},
		[]any{4, "screw", 40.0, "Brand#B"}))
	must(db.Insert("partsupp",
		[]any{1, 1}, []any{2, 1}, []any{3, 1}, []any{3, 2}, []any{4, 2}))
	db.RefreshStats()
	return db
}

func TestOpenAndTables(t *testing.T) {
	db := fixture(t)
	tables := db.Tables()
	if len(tables) != 3 || tables[0] != "part" {
		t.Errorf("tables = %v", tables)
	}
}

func TestCreateTableErrors(t *testing.T) {
	db := Open()
	if err := db.CreateTable("t", []Column{{"a", "nosuch"}}, nil); err == nil {
		t.Error("bad column type must fail")
	}
	if err := db.CreateTable("t", []Column{{"a", "int"}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("t", []Column{{"a", "int"}}, nil); err == nil {
		t.Error("duplicate table must fail")
	}
	if err := db.Insert("t", []any{struct{}{}}); err == nil {
		t.Error("unsupported Go type must fail")
	}
	if err := db.Insert("nosuch", []any{1}); err == nil {
		t.Error("unknown table must fail")
	}
}

func TestSimpleQuery(t *testing.T) {
	db := fixture(t)
	res, err := db.Query("select p_name, p_retailprice from part where p_retailprice > 15 order by p_retailprice")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0] != "nut" || res.Rows[0][1] != 20.0 {
		t.Errorf("first row = %v", res.Rows[0])
	}
	if res.Columns[0] != "part.p_name" {
		t.Errorf("columns = %v", res.Columns)
	}
	if !strings.Contains(res.String(), "washer") {
		t.Error("String() rendering")
	}
}

func TestGApplyQueryThroughAPI(t *testing.T) {
	db := fixture(t)
	res, err := db.Query(`
		select gapply(select count(*), null from g
			where p_retailprice >= (select avg(p_retailprice) from g)
			union all
			select null, count(*) from g
			where p_retailprice < (select avg(p_retailprice) from g)
		) as (above, below)
		from partsupp, part where ps_partkey = p_partkey
		group by ps_suppkey : g`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Stats.Groups != 2 || res.Stats.InnerExecs != 2 {
		t.Errorf("stats = %+v", res.Stats)
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not measured")
	}
}

func TestNullResultsConvert(t *testing.T) {
	db := fixture(t)
	res, err := db.Query("select null, p_name from part where p_partkey = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != nil {
		t.Errorf("NULL must convert to nil, got %v", res.Rows[0][0])
	}
}

// TestIntegerOverflowIsAnError: int64 arithmetic that overflows fails
// the query instead of returning a wrapped value, while the in-range
// edge of the same expressions still computes exactly.
func TestIntegerOverflowIsAnError(t *testing.T) {
	db := fixture(t)
	for _, q := range []string{
		"select 9223372036854775807 + 1 from supplier where s_suppkey = 1",
		"select 4611686018427387904 * 4 from supplier where s_suppkey = 1",
		"select (0 - 9223372036854775807 - 1) / (0 - 1) from supplier where s_suppkey = 1",
		"select p_partkey * 4611686018427387904 from part",
	} {
		res, err := db.Query(q)
		if err == nil || !strings.Contains(err.Error(), "integer overflow") {
			t.Errorf("%s: err = %v, rows = %v; want an integer overflow error", q, err, res)
		}
	}
	res, err := db.Query("select 9223372036854775806 + 1, (0 - 9223372036854775807 - 1) / 1 from supplier where s_suppkey = 1")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0]; got[0] != int64(9223372036854775807) || got[1] != int64(-9223372036854775808) {
		t.Errorf("edge-of-range results = %v", got)
	}
}

// TestSumOverflowIsAnError: an integer SUM whose total leaves int64
// fails the query like overflowing arithmetic does, instead of wrapping,
// while a sum whose running total only passes outside the range on the
// way still comes out exact.
func TestSumOverflowIsAnError(t *testing.T) {
	db := Open()
	if err := db.CreateTable("t", []Column{{"k", "int"}, {"x", "int"}}, nil); err != nil {
		t.Fatal(err)
	}
	const maxInt = int64(9223372036854775807)
	rows := [][]any{{1, maxInt}, {1, maxInt}, {1, maxInt}, {1, maxInt}, {1, maxInt},
		{2, maxInt}, {2, 1}, {2, -1},
		{3, -maxInt}, {3, -2}}
	if err := db.Insert("t", rows...); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"select sum(x) from t where k = 1",
		"select sum(x) from t where k = 3",
		"select k, sum(x) from t group by k",
		"select gapply(select sum(x) from g) as (s) from t group by k : g",
	} {
		res, err := db.Query(q)
		if err == nil || !strings.Contains(err.Error(), "integer overflow") {
			t.Errorf("%s: err = %v, rows = %v; want an integer overflow error", q, err, res)
		}
	}
	res, err := db.Query("select sum(x) from t where k = 2")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0]; got != maxInt {
		t.Errorf("sum(MaxInt64, 1, -1) = %v, want %d", got, maxInt)
	}
}

func TestExplain(t *testing.T) {
	db := fixture(t)
	q := `select gapply(select count(*) from g) as (n)
		from part group by p_brand : g`
	// The optimizer converts this pure-aggregate GApply to a groupby.
	out, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "GroupBy") || !strings.Contains(out, "estimated cost") {
		t.Errorf("explain output:\n%s", out)
	}
	// With the conversion disabled, the GApply operator shows.
	out, err = db.Explain(q, WithoutRule("gapply-to-groupby"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "GApply") {
		t.Errorf("explain output:\n%s", out)
	}
}

func TestQueryOptionsChangeThePlan(t *testing.T) {
	db := fixture(t)
	q := `select gapply(select avg(p_retailprice) from g) as (ap)
		from partsupp, part where ps_partkey = p_partkey
		group by ps_suppkey : g`
	optimized, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := db.Explain(q, WithoutOptimizer())
	if err != nil {
		t.Fatal(err)
	}
	if optimized == raw {
		t.Error("WithoutOptimizer must change the plan")
	}
	noPrune, err := db.Explain(q, WithoutRule("projection-before-gapply"), WithoutRule("gapply-to-groupby"))
	if err != nil {
		t.Fatal(err)
	}
	if noPrune == optimized {
		t.Error("WithoutRule must change the plan")
	}
	sorted, err := db.Explain(q, WithPartition("sort"), WithoutRule("gapply-to-groupby"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sorted, "partition=sort") {
		t.Errorf("partition override missing:\n%s", sorted)
	}
	// Results identical across all options.
	base, _ := db.Query(q)
	for _, opts := range [][]QueryOption{
		{WithoutOptimizer()},
		{WithoutRule("projection-before-gapply")},
		{WithPartition("sort")},
		{WithPartition("hash")},
	} {
		res, err := db.Query(q, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(base.Rows) {
			t.Errorf("option set %v changed row count", opts)
		}
	}
}

func TestForceRuleThroughAPI(t *testing.T) {
	db := fixture(t)
	q := `select gapply(select * from g where exists
			(select p_partkey from g where p_retailprice > 35))
		from partsupp, part where ps_partkey = p_partkey
		group by ps_suppkey : g`
	forced, err := db.Explain(q, ForceRule("group-selection-exists"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(forced, "GApply") {
		t.Errorf("forced rule kept GApply:\n%s", forced)
	}
	res, err := db.Query(q, ForceRule("group-selection-exists"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestOpenTPCH(t *testing.T) {
	db, err := OpenTPCH(0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Tables()) != 8 {
		t.Errorf("tables = %v", db.Tables())
	}
	res, err := db.Query("select count(*) from supplier")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 10 {
		t.Errorf("suppliers = %v", res.Rows[0][0])
	}
}

func TestRuleNamesMatchOptimizer(t *testing.T) {
	db := fixture(t)
	q := `select gapply(select count(*) from g) as (n) from part group by p_brand : g`
	for _, name := range RuleNames() {
		if _, err := db.Query(q, WithoutRule(name)); err != nil {
			t.Errorf("rule %q: %v", name, err)
		}
	}
}

func TestParseErrorsSurface(t *testing.T) {
	db := fixture(t)
	if _, err := db.Query("select from where"); err == nil {
		t.Error("parse error must surface")
	}
	if _, err := db.Query("select nosuch from part"); err == nil {
		t.Error("bind error must surface")
	}
	if _, err := db.Explain("select nosuch from part"); err == nil {
		t.Error("explain must surface bind errors")
	}
}
