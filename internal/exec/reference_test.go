package exec

import (
	"strings"
	"testing"

	"gapplydb/internal/core"
	"gapplydb/internal/schema"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// The reference interpreter is the oracle the engine is checked against,
// so its own tests never consult the engine: every expectation below is
// a literal, worked out by hand from the operator definitions over this
// tiny catalog.
//
//	t(k, v): (2,b) (NULL,x) (1,a) (2,c) (NULL,y) (1,d)
//	u(k, w): (1,10) (1,11) (3,30)
func referenceCatalog(t *testing.T) (*storage.Catalog, *core.Scan, *core.Scan) {
	t.Helper()
	cat := storage.NewCatalog()
	mk := func(name, col string, kind types.Kind, rows []types.Row) *core.Scan {
		tab, err := cat.Create(&schema.TableDef{
			Name: name,
			Schema: schema.New(
				schema.Column{Name: "k", Type: types.KindInt},
				schema.Column{Name: col, Type: kind},
			),
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if err := tab.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		return &core.Scan{Table: name, Def: tab.Def}
	}
	i, s := types.NewInt, types.NewString
	tScan := mk("t", "v", types.KindString, []types.Row{
		{i(2), s("b")}, {types.Null, s("x")}, {i(1), s("a")},
		{i(2), s("c")}, {types.Null, s("y")}, {i(1), s("d")},
	})
	uScan := mk("u", "w", types.KindInt, []types.Row{
		{i(1), i(10)}, {i(1), i(11)}, {i(3), i(30)},
	})
	return cat, tScan, uScan
}

// checkReference evaluates n and compares the rows, rendered one per
// line, against want.
func checkReference(t *testing.T, cat *storage.Catalog, n core.Node, want ...string) {
	t.Helper()
	res, err := Reference(n, cat)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		got[i] = r.String()
	}
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Fatalf("got:\n%s\nwant:\n%s", g, w)
	}
}

func TestReferenceLeftOuterJoinPads(t *testing.T) {
	cat, tScan, uScan := referenceCatalog(t)
	j := &core.Join{
		Left: tScan, Right: uScan, Kind: core.LeftOuterJoin,
		Cond: &core.Cmp{Op: "=", L: core.QCol("t", "k"), R: core.QCol("u", "k")},
		// The physical hint is ignored: the interpreter always loops.
		Method: core.JoinMerge,
	}
	checkReference(t, cat, j,
		"(2, b, NULL, NULL)",
		"(NULL, x, NULL, NULL)", // NULL = 1 is unknown: no match, padded
		"(1, a, 1, 10)",
		"(1, a, 1, 11)",
		"(2, c, NULL, NULL)",
		"(NULL, y, NULL, NULL)",
		"(1, d, 1, 10)",
		"(1, d, 1, 11)",
	)
}

func TestReferenceNullGroupingKeysFormOneGroup(t *testing.T) {
	cat, tScan, _ := referenceCatalog(t)
	g := &core.GroupBy{
		Input:     tScan,
		GroupCols: []*core.ColRef{core.Col("k")},
		Aggs: []core.AggSpec{
			{Fn: "count", Star: true, As: "n"},
			{Fn: "min", Arg: core.Col("v"), As: "lo"},
		},
	}
	checkReference(t, cat, g, "(2, 2, b)", "(NULL, 2, x)", "(1, 2, a)")
}

func TestReferenceGApplyGroupOrder(t *testing.T) {
	cat, tScan, _ := referenceCatalog(t)
	mk := func(hint core.PartitionHint) *core.GApply {
		inner := core.NewProject(&core.GroupScan{Var: "g"}, []core.Expr{core.Col("v")}, nil)
		ga := core.NewGApply(tScan, []*core.ColRef{core.Col("k")}, "g", inner)
		ga.Partition = hint
		return ga
	}
	// Hash partitioning: groups in first-seen order, the two NULL keys
	// forming one group.
	checkReference(t, cat, mk(core.PartitionHash),
		"(2, b)", "(2, c)", "(NULL, x)", "(NULL, y)", "(1, a)", "(1, d)")
	// Sort partitioning: groups in key order (NULL first), rows in input
	// order within each group.
	checkReference(t, cat, mk(core.PartitionSort),
		"(NULL, x)", "(NULL, y)", "(1, a)", "(1, d)", "(2, b)", "(2, c)")
}

func TestReferenceIndexScanBounds(t *testing.T) {
	cat, tScan, _ := referenceCatalog(t)
	ix := func() *core.IndexScan {
		return &core.IndexScan{Table: "t", Def: tScan.Def, Index: "t_k", Cols: []string{"k"}, Ords: []int{0}}
	}
	// Unbounded: the whole heap in key order, NULLs first, ties in heap
	// order.
	checkReference(t, cat, ix(),
		"(NULL, x)", "(NULL, y)", "(1, a)", "(1, d)", "(2, b)", "(2, c)")

	// 1 <= k <= 2: NULL keys satisfy no bound.
	closed := ix()
	closed.Lo, closed.HasLo, closed.LoIncl = types.NewInt(1), true, true
	closed.Hi, closed.HasHi, closed.HiIncl = types.NewInt(2), true, true
	checkReference(t, cat, closed, "(1, a)", "(1, d)", "(2, b)", "(2, c)")

	// 1 < k: the open lower bound drops the 1s.
	open := ix()
	open.Lo, open.HasLo = types.NewInt(1), true
	checkReference(t, cat, open, "(2, b)", "(2, c)")

	// k < 2: the open upper bound drops the 2s, and the NULLs.
	below := ix()
	below.Hi, below.HasHi = types.NewInt(2), true
	checkReference(t, cat, below, "(1, a)", "(1, d)")
}

func TestReferenceElidedOrderByStillSorts(t *testing.T) {
	cat, tScan, _ := referenceCatalog(t)
	// The optimizer only elides a sort whose input is already ordered;
	// the interpreter does not trust the mark, so unsorted input still
	// comes out sorted.
	o := &core.OrderBy{Input: tScan, Keys: []core.OrderKey{{Expr: core.Col("v"), Desc: true}}, Elided: true}
	checkReference(t, cat, o,
		"(NULL, y)", "(NULL, x)", "(1, d)", "(2, c)", "(2, b)", "(1, a)")
}

func TestReferenceOuterApplyPads(t *testing.T) {
	cat, tScan, uScan := referenceCatalog(t)
	mk := func(kind core.ApplyKind) *core.Apply {
		inner := &core.Select{
			Input: tScan,
			Cond:  &core.Cmp{Op: "=", L: core.QCol("t", "k"), R: &core.OuterRef{Table: "u", Name: "k"}},
		}
		return &core.Apply{Outer: uScan, Inner: inner, Kind: kind}
	}
	checkReference(t, cat, mk(core.OuterApply),
		"(1, 10, 1, a)", "(1, 10, 1, d)",
		"(1, 11, 1, a)", "(1, 11, 1, d)",
		"(3, 30, NULL, NULL)", // no t row has k = 3: padded
	)
	checkReference(t, cat, mk(core.CrossApply),
		"(1, 10, 1, a)", "(1, 10, 1, d)",
		"(1, 11, 1, a)", "(1, 11, 1, d)",
	)
}
