package exec

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"gapplydb/internal/core"
	"gapplydb/internal/types"
)

// These tests pin the batch engine's load-bearing internals: the
// slab-carving allocators and their stability guarantees, the
// residual-free and Select-into-Join fusion decisions (and their
// gating), cursor-level budget truncation, and cancellation — the parts
// a plan-level differential can pass by luck.

func TestRowSlabCarveStability(t *testing.T) {
	s := rowSlab{width: 4}
	var rows []types.Row
	// Enough carves to force several slab replacements.
	for i := 0; i < 1000; i++ {
		r := s.carve(4)
		if len(r) != 4 || cap(r) != 4 {
			t.Fatalf("carve %d: len %d cap %d, want 4/4 (three-index isolation)", i, len(r), cap(r))
		}
		for j := range r {
			r[j] = types.NewInt(int64(i*4 + j))
		}
		rows = append(rows, r)
	}
	// Every previously carved row must be intact: no carve may alias or
	// clobber another's storage.
	for i, r := range rows {
		for j, v := range r {
			if v.Int() != int64(i*4+j) {
				t.Fatalf("row %d col %d = %v, want %d", i, j, v, i*4+j)
			}
		}
	}
}

func TestJoinOutSlabPersistsAcrossResets(t *testing.T) {
	o := joinOut{width: 4}
	a := types.Row{types.NewInt(1), types.NewString("left")}
	b := types.Row{types.NewInt(2), types.NewString("right")}
	var emitted []types.Row
	for batch := 0; batch < 50; batch++ {
		o.reset()
		for i := 0; i < 10; i++ {
			o.add(a, b)
		}
		if len(o.rows) != 10 {
			t.Fatalf("batch %d: %d rows", batch, len(o.rows))
		}
		emitted = append(emitted, o.rows...)
	}
	want := types.Row{types.NewInt(1), types.NewString("left"), types.NewInt(2), types.NewString("right")}
	for i, r := range emitted {
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("emitted row %d corrupted: %v", i, r)
		}
	}
	// 500 width-4 rows at a batchSize*width cap means a handful of slabs,
	// not one per reset: the whole point of persisting the slab.
	if cap(o.slab) < 8*4 {
		t.Fatalf("slab cap %d never grew past the minimum", cap(o.slab))
	}
}

// priceFilter returns a Select over in with cond p_retailprice > 15.
func priceFilter(in core.Node) *core.Select {
	return &core.Select{
		Input: in,
		Cond:  &core.Cmp{Op: ">", L: core.Col("p_retailprice"), R: core.LitFloat(15)},
	}
}

func TestSelectOverJoinFusesAsPostFilter(t *testing.T) {
	ctx := fixture(t)
	it, err := buildBatch(priceFilter(joined(ctx)), ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	hj, ok := it.(*bHashJoin)
	if !ok {
		t.Fatalf("Select over equi-join built %T, want *bHashJoin (fused post-filter)", it)
	}
	if hj.pred != nil {
		t.Error("join condition is exactly its equi-pair, pred should be dropped (residual-free)")
	}
	if hj.post == nil {
		t.Error("fused Select should compile into the join's post filter")
	}
	rows, err := drainBatchRows(it, ctx)
	if err != nil {
		t.Fatal(err)
	}
	// partsupp ⋈ part has 5 matches; prices 10 and 20,30,40 — p1 (price
	// 10) joins once, so 4 survive the filter.
	if len(rows) != 4 {
		t.Fatalf("fused join+filter = %d rows, want 4", len(rows))
	}
}

// projectJoin is Project(p_name, ps_suppkey) over partsupp ⋈ part.
func projectJoin(in core.Node) *core.Project {
	return core.NewProject(in, []core.Expr{core.Col("p_name"), core.Col("ps_suppkey")}, []string{"", ""})
}

// brandCounts is GroupBy(p_brand; count(*), sum(ps_suppkey)) over in.
func brandCounts(in core.Node) *core.GroupBy {
	return &core.GroupBy{
		Input:     in,
		GroupCols: []*core.ColRef{core.Col("p_brand")},
		Aggs: []core.AggSpec{
			{Fn: "count", Star: true, As: "n"},
			{Fn: "sum", Arg: core.Col("ps_suppkey"), As: "s"},
		},
	}
}

// unwrap strips the probe and spool wrappers buildBatch puts around a
// node's iterator.
func unwrap(it BatchIterator) BatchIterator {
	for {
		switch w := it.(type) {
		case *batchProbe:
			it = w.inner
		case *bspool:
			it = w.inner
		default:
			return it
		}
	}
}

// TestJoinFusionGatedByProfile: a Select, Project or GroupBy fuses into
// the join below it only when the join's identity is unobserved. Under
// a profile (EXPLAIN ANALYZE) every operator keeps its identity, or
// per-operator actuals change shape; with a spool holder on the join,
// the spool must wrap the join the planner named. Either way the join
// emits whole rows, unfiltered, and the consumer stays a distinct
// operator over it.
func TestJoinFusionGatedByProfile(t *testing.T) {
	consumers := []struct {
		name  string
		plan  func(in core.Node) core.Node
		input func(it BatchIterator) (BatchIterator, bool)
	}{
		{"select", func(in core.Node) core.Node { return priceFilter(in) }, func(it BatchIterator) (BatchIterator, bool) {
			f, ok := it.(*bFilter)
			if !ok {
				return nil, false
			}
			return f.input, true
		}},
		{"project", func(in core.Node) core.Node { return projectJoin(in) }, func(it BatchIterator) (BatchIterator, bool) {
			p, ok := it.(*bProjectCols)
			if !ok {
				return nil, false
			}
			return p.input, true
		}},
		{"groupby", func(in core.Node) core.Node { return brandCounts(in) }, func(it BatchIterator) (BatchIterator, bool) {
			g, ok := it.(*bHashGroupBy)
			if !ok {
				return nil, false
			}
			return g.input, true
		}},
	}
	observers := []struct {
		name    string
		observe func(ctx *Context, j *core.Join)
	}{
		{"profile", func(ctx *Context, _ *core.Join) { ctx.Prof = NewProfile() }},
		{"spool", func(ctx *Context, j *core.Join) { ctx.spools = newSpoolRegistry([]core.Node{j}) }},
	}
	for _, c := range consumers {
		for _, o := range observers {
			t.Run(c.name+"/"+o.name, func(t *testing.T) {
				ctx := fixture(t)
				j := joined(ctx)
				o.observe(ctx, j)
				it, err := buildBatch(c.plan(j), ctx, nil)
				if err != nil {
					t.Fatal(err)
				}
				in, ok := c.input(unwrap(it))
				if !ok {
					t.Fatalf("consumer built %T, want it kept as a distinct operator", unwrap(it))
				}
				hj, ok := unwrap(in).(*bHashJoin)
				if !ok {
					t.Fatalf("consumer input is %T, want the join", unwrap(in))
				}
				if hj.post != nil || hj.outBuf.ords != nil {
					t.Fatalf("observed join fused its consumer (post %v, ords %v)", hj.post != nil, hj.outBuf.ords)
				}
			})
		}
	}
}

// TestProjectJoinFusesIntoJoin: a pure-column Project over an unobserved
// join compiles to the join alone, writing the projection's columns (in
// its order, duplicates kept) straight into its output slab.
func TestProjectJoinFusesIntoJoin(t *testing.T) {
	ctx := fixture(t)
	plan := core.NewProject(joined(ctx),
		[]core.Expr{core.Col("p_name"), core.Col("ps_suppkey"), core.Col("p_name")}, []string{"", "", ""})
	it, err := buildBatch(plan, ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	hj, ok := it.(*bHashJoin)
	if !ok {
		t.Fatalf("Project(Join) built %T, want *bHashJoin with the projection fused in", it)
	}
	// partsupp(ps_partkey, ps_suppkey) ++ part(p_partkey, p_name, ...).
	if want := []int{3, 1, 3}; !reflect.DeepEqual(hj.outBuf.ords, want) {
		t.Fatalf("join output ordinals = %v, want %v", hj.outBuf.ords, want)
	}
	rows, err := drainBatchRows(it, ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r) != 3 || cap(r) != 3 {
			t.Fatalf("row %v: len %d cap %d, want 3/3", r, len(r), cap(r))
		}
	}

	// A computed projection keeps its own operator over a join that
	// writes only the columns it reads, in schema order.
	plan = core.NewProject(joined(ctx),
		[]core.Expr{&core.BinOp{Op: "*", L: core.Col("p_retailprice"), R: core.LitFloat(2)}, core.Col("ps_suppkey")}, []string{"", ""})
	it, err = buildBatch(plan, ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := it.(*bProject)
	if !ok {
		t.Fatalf("computed Project(Join) built %T, want *bProject", it)
	}
	hj, ok = p.input.(*bHashJoin)
	if !ok {
		t.Fatalf("computed projection's input is %T, want *bHashJoin", p.input)
	}
	if want := []int{1, 4}; !reflect.DeepEqual(hj.outBuf.ords, want) {
		t.Fatalf("join output ordinals = %v, want %v", hj.outBuf.ords, want)
	}
}

func TestBatchEngineParityOnJoinFusionShapes(t *testing.T) {
	mk := func() (*Context, *Context) { return fixture(t), fixture(t) }
	outerJoin := func(ctx *Context) *core.Join {
		return &core.Join{
			Kind:  core.LeftOuterJoin,
			Left:  scan(ctx, "supplier"),
			Right: scan(ctx, "partsupp"),
			Cond:  &core.Cmp{Op: "=", L: core.QCol("supplier", "s_suppkey"), R: core.QCol("partsupp", "ps_suppkey")},
		}
	}
	withMethod := func(j *core.Join, m core.JoinMethod) *core.Join {
		j.Method = m
		return j
	}
	cases := []struct {
		name string
		plan func(ctx *Context) core.Node
	}{
		{"select-over-inner-join", func(ctx *Context) core.Node { return priceFilter(joined(ctx)) }},
		{"project-select-join", func(ctx *Context) core.Node {
			return core.NewProject(priceFilter(joined(ctx)),
				[]core.Expr{core.Col("p_name"), core.Col("p_retailprice")}, []string{"", ""})
		}},
		{"project-join-reordered-duplicated", func(ctx *Context) core.Node {
			return core.NewProject(joined(ctx),
				[]core.Expr{core.Col("p_brand"), core.Col("ps_suppkey"), core.Col("p_brand"), core.QCol("partsupp", "ps_partkey")},
				[]string{"", "", "b2", ""})
		}},
		{"project-join-computed", func(ctx *Context) core.Node {
			return core.NewProject(joined(ctx),
				[]core.Expr{&core.BinOp{Op: "*", L: core.Col("p_retailprice"), R: core.Col("ps_suppkey")}, core.Col("p_name")},
				[]string{"cost", ""})
		}},
		{"project-select-join-computed", func(ctx *Context) core.Node {
			return core.NewProject(priceFilter(joined(ctx)),
				[]core.Expr{&core.BinOp{Op: "+", L: core.Col("ps_suppkey"), R: core.LitInt(100)}}, []string{"k"})
		}},
		// gamma supplies nothing: the projection reads the padded side,
		// which must come out NULL.
		{"project-outer-join-padded-side", func(ctx *Context) core.Node {
			return core.NewProject(outerJoin(ctx),
				[]core.Expr{core.Col("ps_partkey"), core.Col("s_name")}, []string{"", ""})
		}},
		{"groupby-join", func(ctx *Context) core.Node { return brandCounts(joined(ctx)) }},
		{"groupby-select-join", func(ctx *Context) core.Node { return brandCounts(priceFilter(joined(ctx))) }},
		// count(*) alone reads no column: the join emits zero-width rows.
		{"count-star-aggregate-join", func(ctx *Context) core.Node {
			return &core.AggOp{Input: joined(ctx), Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}}}
		}},
		{"aggregate-outer-join", func(ctx *Context) core.Node {
			return &core.AggOp{Input: outerJoin(ctx), Aggs: []core.AggSpec{
				{Fn: "count", Arg: core.Col("ps_partkey"), As: "n"},
				{Fn: "max", Arg: core.Col("s_name"), As: "m"},
			}}
		}},
		{"project-merge-join", func(ctx *Context) core.Node {
			return projectJoin(withMethod(joined(ctx), core.JoinMerge))
		}},
		{"project-select-merge-join", func(ctx *Context) core.Node {
			return projectJoin(priceFilter(withMethod(joined(ctx), core.JoinMerge)))
		}},
		{"project-nl-join", func(ctx *Context) core.Node {
			return projectJoin(withMethod(joined(ctx), core.JoinNestedLoops))
		}},
		{"project-nl-outer-join", func(ctx *Context) core.Node {
			return core.NewProject(withMethod(outerJoin(ctx), core.JoinNestedLoops),
				[]core.Expr{core.Col("s_name"), core.Col("ps_partkey")}, []string{"", ""})
		}},
		// gamma supplies nothing: the padded row passes this filter, so
		// the fused post predicate must run on NULL-padded rows too.
		{"select-over-outer-join-pad-passes", func(ctx *Context) core.Node {
			return &core.Select{
				Input: outerJoin(ctx),
				Cond:  &core.Cmp{Op: ">=", L: core.Col("s_suppkey"), R: core.LitInt(2)},
			}
		}},
		// NULL = NULL is UNKNOWN: the same padded row must be rejected
		// when the filter touches the padded side.
		{"select-over-outer-join-pad-rejected", func(ctx *Context) core.Node {
			return &core.Select{
				Input: outerJoin(ctx),
				Cond:  &core.Cmp{Op: "=", L: core.Col("ps_suppkey"), R: core.Col("ps_suppkey")},
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bctx, rctx := mk()
			batch := mustRun(t, tc.plan(bctx), bctx)
			ref, err := Reference(tc.plan(rctx), rctx.Catalog)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch.Rows) != len(ref.Rows) {
				t.Fatalf("batch %d rows, reference %d rows", len(batch.Rows), len(ref.Rows))
			}
			for i := range ref.Rows {
				if !reflect.DeepEqual(batch.Rows[i], ref.Rows[i]) {
					t.Fatalf("row %d: batch %v vs reference %v", i, batch.Rows[i], ref.Rows[i])
				}
			}
		})
	}
}

func TestCursorBatchBudgetTruncation(t *testing.T) {
	ctx := fixture(t)
	ctx.Budget = &Budget{MaxOutputRows: 3}
	cur, err := Start(scan(ctx, "part"), ctx) // 4 rows
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var got int
	var rerr error
	for {
		b, err := cur.NextBatch()
		if err != nil {
			rerr = err
			break
		}
		if b == nil {
			break
		}
		got += b.Len()
	}
	if got != 3 {
		t.Fatalf("delivered %d rows before the budget error, want exactly the 3 budgeted", got)
	}
	var re *ResourceError
	if !errors.As(rerr, &re) {
		t.Fatalf("error = %v, want *ResourceError", rerr)
	}
	if re.Limit != LimitOutputRows || re.Used != 4 {
		t.Fatalf("ResourceError = %+v, want limit %s used 4", re, LimitOutputRows)
	}
}

func TestRunBatchCancellation(t *testing.T) {
	ctx := fixture(t)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx.Ctx = cctx
	if _, err := Run(joined(ctx), ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on a cancelled context = %v, want context.Canceled", err)
	}
}
