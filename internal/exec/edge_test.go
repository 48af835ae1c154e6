package exec

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"gapplydb/internal/core"
	"gapplydb/internal/types"
)

// Runtime failure injection: errors must surface through the iterator
// tree, not panic or vanish.

func TestRuntimeDivisionByZero(t *testing.T) {
	ctx := fixture(t)
	plan := core.NewProject(scan(ctx, "part"),
		[]core.Expr{&core.BinOp{Op: "/", L: core.LitInt(1), R: core.LitInt(0)}}, nil)
	if _, err := Run(plan, ctx); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("err = %v", err)
	}
	// Division by a zero-valued column, mid-stream.
	ps, _ := ctx.Catalog.Lookup("partsupp")
	ps.Rows = append(ps.Rows, types.Row{types.NewInt(9), types.NewInt(0)})
	plan2 := core.NewProject(scan(ctx, "partsupp"),
		[]core.Expr{&core.BinOp{Op: "/", L: core.Col("ps_partkey"), R: core.Col("ps_suppkey")}}, nil)
	if _, err := Run(plan2, ctx); err == nil {
		t.Error("mid-stream division by zero must fail")
	}
}

func TestRuntimeTypeErrors(t *testing.T) {
	ctx := fixture(t)
	// Arithmetic on strings.
	bad := core.NewProject(scan(ctx, "part"),
		[]core.Expr{&core.BinOp{Op: "+", L: core.Col("p_name"), R: core.LitInt(1)}}, nil)
	if _, err := Run(bad, ctx); err == nil {
		t.Error("string arithmetic must fail")
	}
	// Sum over strings.
	agg := &core.AggOp{Input: scan(ctx, "part"),
		Aggs: []core.AggSpec{{Fn: "sum", Arg: core.Col("p_name"), As: "s"}}}
	if _, err := Run(agg, ctx); err == nil {
		t.Error("sum over strings must fail")
	}
	// abs of a string.
	absq := core.NewProject(scan(ctx, "part"),
		[]core.Expr{&core.Func{Name: "abs", Args: []core.Expr{core.Col("p_name")}}}, nil)
	if _, err := Run(absq, ctx); err == nil {
		t.Error("abs of string must fail")
	}
	// Unknown aggregate function.
	bad2 := &core.AggOp{Input: scan(ctx, "part"),
		Aggs: []core.AggSpec{{Fn: "median", Arg: core.Col("p_retailprice")}}}
	if _, err := Run(bad2, ctx); err == nil {
		t.Error("unknown aggregate must fail")
	}
}

func TestSortIsStable(t *testing.T) {
	ctx := fixture(t)
	// Sort by brand: rows within a brand must keep scan order.
	o := &core.OrderBy{Input: scan(ctx, "part"), Keys: []core.OrderKey{{Expr: core.Col("p_brand")}}}
	res := mustRun(t, o, ctx)
	var brandA []string
	for _, r := range res.Rows {
		if r[3].Str() == "Brand#A" {
			brandA = append(brandA, r[1].Str())
		}
	}
	if len(brandA) != 2 || brandA[0] != "bolt" || brandA[1] != "washer" {
		t.Errorf("stability violated: %v", brandA)
	}
}

func TestOrderByExpressionKey(t *testing.T) {
	ctx := fixture(t)
	// Sort by a computed key: price modulo-ish expression.
	o := &core.OrderBy{Input: scan(ctx, "part"), Keys: []core.OrderKey{
		{Expr: &core.BinOp{Op: "-", L: core.LitFloat(0), R: core.Col("p_retailprice")}},
	}}
	res := mustRun(t, o, ctx)
	if res.Rows[0][1].Str() != "screw" {
		t.Errorf("computed-key sort: %v", res.Rows)
	}
}

func TestNestedApplies(t *testing.T) {
	ctx := fixture(t)
	// Outer apply over suppliers; inner apply over their partsupps with
	// a second level of correlation back to the supplier row.
	level2 := &core.AggOp{
		Input: &core.Select{
			Input: scan(ctx, "partsupp"),
			Cond: &core.And{Ops: []core.Expr{
				&core.Cmp{Op: "=", L: core.Col("ps_suppkey"), R: &core.OuterRef{Table: "supplier", Name: "s_suppkey"}},
			}},
		},
		Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}},
	}
	level1 := &core.Apply{Outer: scan(ctx, "supplier"), Inner: level2}
	// Wrap again: count parts with partkey above that count (nonsense
	// predicate, but exercises two frames on the outer stack).
	level3 := &core.AggOp{
		Input: &core.Select{
			Input: scan(ctx, "part"),
			Cond:  &core.Cmp{Op: ">", L: core.Col("p_partkey"), R: &core.OuterRef{Name: "n"}},
		},
		Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "m"}},
	}
	plan := &core.Apply{Outer: level1, Inner: level3}
	res := mustRun(t, plan, ctx)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, r := range res.Rows {
		n, m := r[2].Int(), r[3].Int()
		if m != 4-min64(n, 4) {
			t.Errorf("supplier %v: n=%d m=%d", r[0], n, m)
		}
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func TestHashJoinResidualPredicate(t *testing.T) {
	ctx := fixture(t)
	// Equi pair plus a non-equi residual on the joined row.
	j := joined(ctx)
	j.Cond = &core.And{Ops: []core.Expr{
		j.Cond,
		&core.Cmp{Op: ">", L: core.QCol("part", "p_retailprice"), R: core.LitFloat(25)},
	}}
	res := mustRun(t, j, ctx)
	// washer(30) twice + screw(40) once.
	if len(res.Rows) != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestLeftOuterJoinWithResidual(t *testing.T) {
	ctx := fixture(t)
	j := &core.Join{
		Kind:  core.LeftOuterJoin,
		Left:  scan(ctx, "supplier"),
		Right: scan(ctx, "partsupp"),
		Cond: &core.And{Ops: []core.Expr{
			&core.Cmp{Op: "=", L: core.QCol("supplier", "s_suppkey"), R: core.QCol("partsupp", "ps_suppkey")},
			&core.Cmp{Op: "=", L: core.QCol("partsupp", "ps_partkey"), R: core.LitInt(3)},
		}},
	}
	res := mustRun(t, j, ctx)
	// s1 and s2 each match partkey 3 once; s3 padded.
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	padded := 0
	for _, r := range res.Rows {
		if r[2].IsNull() {
			padded++
		}
	}
	if padded != 1 {
		t.Errorf("padded = %d", padded)
	}
}

func TestDistinctWithNullRows(t *testing.T) {
	ctx := fixture(t)
	part, _ := ctx.Catalog.Lookup("part")
	part.Rows = append(part.Rows,
		types.Row{types.NewInt(10), types.Null, types.Null, types.Null},
		types.Row{types.NewInt(11), types.Null, types.Null, types.Null})
	d := &core.Distinct{Input: core.ProjectCols(scan(ctx, "part"), []*core.ColRef{core.Col("p_name")})}
	res := mustRun(t, d, ctx)
	// 4 names + one NULL (NULLs deduplicate together).
	if len(res.Rows) != 5 {
		t.Errorf("distinct rows = %v", res.Rows)
	}
}

func TestEmptyTableEverywhere(t *testing.T) {
	ctx := fixture(t)
	part, _ := ctx.Catalog.Lookup("part")
	part.Rows = nil
	// Join with empty side.
	if res := mustRun(t, joined(ctx), ctx); len(res.Rows) != 0 {
		t.Error("join with empty side")
	}
	// GroupBy over empty join.
	gb := &core.GroupBy{Input: joined(ctx), GroupCols: []*core.ColRef{core.Col("ps_suppkey")},
		Aggs: []core.AggSpec{{Fn: "count", Star: true}}}
	if res := mustRun(t, gb, ctx); len(res.Rows) != 0 {
		t.Error("groupby over empty")
	}
	// GApply over empty outer.
	ga := core.NewGApply(joined(ctx), []*core.ColRef{core.Col("ps_suppkey")}, "g",
		&core.AggOp{Input: &core.GroupScan{Var: "g"}, Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}}})
	if res := mustRun(t, ga, ctx); len(res.Rows) != 0 {
		t.Error("gapply over empty outer")
	}
	// Sort and distinct over empty input.
	o := &core.OrderBy{Input: scan(ctx, "part"), Keys: []core.OrderKey{{Expr: core.Col("p_name")}}}
	if res := mustRun(t, o, ctx); len(res.Rows) != 0 {
		t.Error("sort over empty")
	}
}

func TestUnionInsideApplyReopens(t *testing.T) {
	// An Apply re-opens its inner per outer row; a union inner checks
	// every iterator's re-open path.
	ctx := fixture(t)
	inner := &core.UnionAll{Inputs: []core.Node{
		&core.AggOp{Input: &core.Select{
			Input: scan(ctx, "partsupp"),
			Cond:  &core.Cmp{Op: "=", L: core.Col("ps_suppkey"), R: &core.OuterRef{Table: "supplier", Name: "s_suppkey"}},
		}, Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}}},
		&core.AggOp{Input: scan(ctx, "partsupp"), Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}}},
	}}
	plan := &core.Apply{Outer: scan(ctx, "supplier"), Inner: inner}
	res := mustRun(t, plan, ctx)
	// 3 suppliers × 2 union branches.
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %v", res.Rows)
	}
	totals := 0
	for _, r := range res.Rows {
		if r[2].Int() == 5 {
			totals++ // the uncorrelated branch always counts all 5
		}
	}
	if totals != 3 {
		t.Errorf("uncorrelated branch rows = %d", totals)
	}
}

func TestGApplyInsideApplyReopens(t *testing.T) {
	// GApply as an apply inner must re-partition per outer row.
	ctx := fixture(t)
	ga := core.NewGApply(
		&core.Select{
			Input: scan(ctx, "partsupp"),
			Cond:  &core.Cmp{Op: "=", L: core.Col("ps_suppkey"), R: &core.OuterRef{Table: "supplier", Name: "s_suppkey"}},
		},
		[]*core.ColRef{core.Col("ps_suppkey")}, "gg",
		&core.AggOp{Input: &core.GroupScan{Var: "gg"}, Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}}})
	plan := &core.Apply{Outer: scan(ctx, "supplier"), Inner: ga}
	res := mustRun(t, plan, ctx)
	// Suppliers 1 and 2 produce one group each; supplier 3 produces none.
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, r := range res.Rows {
		want := int64(3)
		if r[0].Int() == 2 {
			want = 2
		}
		if r[3].Int() != want {
			t.Errorf("supplier %v count = %v", r[0], r[3])
		}
	}
}

func TestCountersAccounting(t *testing.T) {
	ctx := fixture(t)
	res := mustRun(t, gapplyQ1(ctx, core.PartitionHash), ctx)
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	c := ctx.Counters
	if c.RowsScanned != 9 { // partsupp 5 + part 4
		t.Errorf("RowsScanned = %d", c.RowsScanned)
	}
	if c.Groups != 2 || c.InnerExecs != 2 {
		t.Errorf("groups = %d, innerExecs = %d", c.Groups, c.InnerExecs)
	}
	if c.GroupScanRows == 0 {
		t.Error("GroupScanRows not counted")
	}
}

func TestDateValuesFlowThrough(t *testing.T) {
	ctx := fixture(t)
	if err := func() error {
		_, err := ctx.Catalog.Lookup("events")
		return err
	}(); err == nil {
		t.Skip("events exists")
	}
	tab, err := ctx.Catalog.Create(dateTableDef())
	if err != nil {
		t.Fatal(err)
	}
	tab.Append(types.Row{types.NewInt(1), types.NewDate(100)})
	tab.Append(types.Row{types.NewInt(2), types.NewDate(50)})
	o := &core.OrderBy{Input: scan(ctx, "events"), Keys: []core.OrderKey{{Expr: core.Col("e_day")}}}
	res := mustRun(t, o, ctx)
	if res.Rows[0][0].Int() != 2 {
		t.Errorf("date ordering: %v", res.Rows)
	}
	g := &core.GroupBy{Input: scan(ctx, "events"), GroupCols: []*core.ColRef{core.Col("e_day")},
		Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}}}
	if res := mustRun(t, g, ctx); len(res.Rows) != 2 {
		t.Errorf("date grouping: %v", res.Rows)
	}
}

// TestSumIsChecked: an integer SUM adds exactly and fails only when the
// final total leaves int64, with the error integer arithmetic returns.
func TestSumIsChecked(t *testing.T) {
	const maxI, minI = math.MaxInt64, math.MinInt64
	ints := func(vs ...int64) []types.Value {
		out := make([]types.Value, len(vs))
		for i, v := range vs {
			out[i] = types.NewInt(v)
		}
		return out
	}
	cases := []struct {
		name     string
		in       []types.Value
		want     types.Value
		overflow bool
	}{
		{"five-max", ints(maxI, maxI, maxI, maxI, maxI), types.Null, true},
		{"max-plus-one", ints(maxI, 1), types.Null, true},
		{"min-minus-one", ints(minI, -1), types.Null, true},
		{"max-up-and-back", ints(maxI, 1, -1), types.NewInt(maxI), false},
		{"min-down-and-back", ints(minI, -1, 1), types.NewInt(minI), false},
		{"max-min-cancel", ints(maxI, maxI, minI, minI, 1), types.NewInt(-1), false},
		{"nulls-skipped", []types.Value{types.Null, types.NewInt(2), types.Null}, types.NewInt(2), false},
		{"all-null", []types.Value{types.Null}, types.Null, false},
		{"float-promotes", []types.Value{types.NewInt(maxI), types.NewFloat(1)}, types.NewFloat(float64(maxI) + 1), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := newAccum(core.AggSpec{Fn: "sum"})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range tc.in {
				if err := a.add(v); err != nil {
					t.Fatal(err)
				}
			}
			got, err := a.result()
			if tc.overflow {
				if !errors.Is(err, types.ErrIntegerOverflow) {
					t.Fatalf("sum = %v, err = %v; want types.ErrIntegerOverflow", got, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("sum = %v, want %v", got, tc.want)
			}
		})
	}
}
