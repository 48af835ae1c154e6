package exec

import (
	"fmt"
	"sort"
	"strings"

	"gapplydb/internal/core"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// Reference evaluates a plan with the reference interpreter: a direct,
// recursive reading of the algebra over fully materialized rows, written
// to be obviously right rather than fast. It is the oracle the execution
// engine is differentially tested against, so it shares none of the
// engine's physical machinery — no batches, goroutines, spools, budgets,
// cancellation or profiling — and it ignores every physical hint the
// optimizer leaves in the plan:
//
//   - every join is a nested loop, whatever Join.Method says;
//   - OrderBy always stable-sorts, even when marked Elided;
//   - IndexScan reads the heap, keeps the rows inside its key bounds and
//     stable-sorts them on the index columns;
//   - GroupBy, Distinct and hash-partitioned GApply keep groups in
//     first-seen order; a sort-partitioned GApply stable-sorts its outer
//     on the grouping columns first.
//
// What it does share with the engine is the engine-independent
// vocabulary: expression compilation, the aggregate accumulators, and the
// types package's comparison and key encoding.
func Reference(n core.Node, cat *storage.Catalog) (*Result, error) {
	ev := &refEval{ctx: NewContext(cat)}
	rows, err := ev.eval(n, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: n.Schema(), Rows: rows}, nil
}

// refEval carries the interpreter's one piece of state: a Context used
// only as the environment compiled expressions read — the group
// bindings GroupScan resolves and the outer-row stack OuterRefs index.
type refEval struct {
	ctx *Context
}

// eval returns the rows node n produces. env is the stack of enclosing
// Apply outer schemas, exactly as the engine compiles against it.
func (ev *refEval) eval(n core.Node, env compileEnv) ([]types.Row, error) {
	switch x := n.(type) {
	case *core.Scan:
		tab, err := ev.ctx.Catalog.Lookup(x.Table)
		if err != nil {
			return nil, err
		}
		return tab.Rows, nil

	case *core.IndexScan:
		return ev.indexScan(x)

	case *core.GroupScan:
		return ev.ctx.Group(x.Var)

	case *core.Select:
		in, err := ev.eval(x.Input, env)
		if err != nil {
			return nil, err
		}
		pred, err := compilePredicate(x.Cond, x.Input.Schema(), env)
		if err != nil {
			return nil, err
		}
		var out []types.Row
		for _, r := range in {
			ok, err := pred(r, ev.ctx)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, r)
			}
		}
		return out, nil

	case *core.Project:
		in, err := ev.eval(x.Input, env)
		if err != nil {
			return nil, err
		}
		fns, err := compileAll(x.Exprs, x.Input.Schema(), env)
		if err != nil {
			return nil, err
		}
		out := make([]types.Row, len(in))
		for i, r := range in {
			row := make(types.Row, len(fns))
			for j, f := range fns {
				if row[j], err = f(r, ev.ctx); err != nil {
					return nil, err
				}
			}
			out[i] = row
		}
		return out, nil

	case *core.Distinct:
		in, err := ev.eval(x.Input, env)
		if err != nil {
			return nil, err
		}
		var out []types.Row
		seen := make(map[string]bool)
		for _, r := range in {
			if k := r.KeyAll(); !seen[k] {
				seen[k] = true
				out = append(out, r)
			}
		}
		return out, nil

	case *core.Join:
		return ev.join(x, env)

	case *core.GroupBy:
		in, err := ev.eval(x.Input, env)
		if err != nil {
			return nil, err
		}
		ords, err := resolveCols(x.GroupCols, x.Input.Schema())
		if err != nil {
			return nil, err
		}
		var out []types.Row
		for _, g := range groupFirstSeen(in, ords) {
			aggs, err := ev.aggregate(g, x.Aggs, x.Input, env)
			if err != nil {
				return nil, err
			}
			out = append(out, g[0].Project(ords).Concat(aggs))
		}
		return out, nil

	case *core.AggOp:
		in, err := ev.eval(x.Input, env)
		if err != nil {
			return nil, err
		}
		row, err := ev.aggregate(in, x.Aggs, x.Input, env)
		if err != nil {
			return nil, err
		}
		return []types.Row{row}, nil

	case *core.OrderBy:
		in, err := ev.eval(x.Input, env)
		if err != nil {
			return nil, err
		}
		return ev.sort(in, x, env)

	case *core.UnionAll:
		var out []types.Row
		for _, c := range x.Inputs {
			rows, err := ev.eval(c, env)
			if err != nil {
				return nil, err
			}
			out = append(out, rows...)
		}
		return out, nil

	case *core.Apply:
		return ev.apply(x, env)

	case *core.Exists:
		in, err := ev.eval(x.Input, env)
		if err != nil {
			return nil, err
		}
		if (len(in) > 0) != x.Negated {
			return []types.Row{{}}, nil
		}
		return nil, nil

	case *core.GApply:
		return ev.gapply(x, env)

	default:
		return nil, fmt.Errorf("exec: reference: unknown logical operator %T", n)
	}
}

// indexScan is a heap scan restricted to the index bounds (SQL
// comparisons: a NULL key satisfies none) and stable-sorted on the index
// columns, which is the order an index run delivers.
func (ev *refEval) indexScan(x *core.IndexScan) ([]types.Row, error) {
	tab, err := ev.ctx.Catalog.Lookup(x.Table)
	if err != nil {
		return nil, err
	}
	inBounds := func(v types.Value) bool {
		if x.HasLo {
			c, ok := types.Compare(v, x.Lo)
			if !ok || c < 0 || (c == 0 && !x.LoIncl) {
				return false
			}
		}
		if x.HasHi {
			c, ok := types.Compare(v, x.Hi)
			if !ok || c > 0 || (c == 0 && !x.HiIncl) {
				return false
			}
		}
		return true
	}
	var out []types.Row
	for _, r := range tab.Rows {
		if inBounds(r[x.Ords[0]]) {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return types.CompareRows(out[i], out[j], x.Ords, nil) < 0
	})
	return out, nil
}

// join is a nested-loop join: for each left row in order, every right row
// in order that satisfies the condition; a left-outer join pads an
// unmatched left row with NULLs.
func (ev *refEval) join(x *core.Join, env compileEnv) ([]types.Row, error) {
	left, err := ev.eval(x.Left, env)
	if err != nil {
		return nil, err
	}
	right, err := ev.eval(x.Right, env)
	if err != nil {
		return nil, err
	}
	pred, err := compilePredicate(x.Cond, x.Schema(), env)
	if err != nil {
		return nil, err
	}
	pad := make(types.Row, x.Right.Schema().Len())
	// The condition is evaluated on one scratch row; only matches are
	// copied out.
	probe := make(types.Row, x.Left.Schema().Len()+len(pad))
	var out []types.Row
	for _, l := range left {
		copy(probe, l)
		matched := false
		for _, r := range right {
			copy(probe[len(l):], r)
			ok, err := pred(probe, ev.ctx)
			if err != nil {
				return nil, err
			}
			if ok {
				matched = true
				out = append(out, l.Concat(r))
			}
		}
		if !matched && x.Kind == core.LeftOuterJoin {
			out = append(out, l.Concat(pad))
		}
	}
	return out, nil
}

// aggregate folds rows into one row of aggregate results.
func (ev *refEval) aggregate(rows []types.Row, specs []core.AggSpec, in core.Node, env compileEnv) (types.Row, error) {
	aggs, err := compileAggs(specs, in.Schema(), env)
	if err != nil {
		return nil, err
	}
	states, err := newStates(aggs)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if err := feed(aggs, states, r, ev.ctx); err != nil {
			return nil, err
		}
	}
	out := make(types.Row, len(states))
	for i, st := range states {
		v, err := st.result()
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// sort stable-sorts rows on the OrderBy keys.
func (ev *refEval) sort(rows []types.Row, x *core.OrderBy, env compileEnv) ([]types.Row, error) {
	keys, err := compileOrderKeys(x.Keys, x.Input.Schema(), env)
	if err != nil {
		return nil, err
	}
	type keyed struct{ row, key types.Row }
	data := make([]keyed, len(rows))
	for i, r := range rows {
		kv := make(types.Row, len(keys))
		for j, k := range keys {
			if kv[j], err = k.fn(r, ev.ctx); err != nil {
				return nil, err
			}
		}
		data[i] = keyed{row: r, key: kv}
	}
	sort.SliceStable(data, func(i, j int) bool {
		for k, key := range keys {
			if c := types.SortCompare(data[i].key[k], data[j].key[k]); c != 0 {
				return (c < 0) != key.desc
			}
		}
		return false
	})
	out := make([]types.Row, len(data))
	for i, d := range data {
		out[i] = d.row
	}
	return out, nil
}

// apply evaluates the inner once per outer row with that row pushed for
// the inner's OuterRefs: R A E = ∪_{r∈R} ({r} × E(r)). An outer apply
// pads an outer row whose inner is empty.
func (ev *refEval) apply(x *core.Apply, env compileEnv) ([]types.Row, error) {
	outer, err := ev.eval(x.Outer, env)
	if err != nil {
		return nil, err
	}
	innerEnv := env.push(x.Outer.Schema())
	pad := make(types.Row, x.Inner.Schema().Len())
	var out []types.Row
	for _, o := range outer {
		ev.ctx.pushOuter(o)
		inner, err := ev.eval(x.Inner, innerEnv)
		ev.ctx.popOuter()
		if err != nil {
			return nil, err
		}
		if len(inner) == 0 && x.Kind == core.OuterApply {
			out = append(out, o.Concat(pad))
		}
		for _, r := range inner {
			out = append(out, o.Concat(r))
		}
	}
	return out, nil
}

// gapply is the paper's definition (§3): partition the outer on the
// grouping columns, bind each group to the group variable as a temporary
// relation, run the per-group query over it, and concatenate the
// per-group results, each prefixed with its grouping values.
func (ev *refEval) gapply(x *core.GApply, env compileEnv) ([]types.Row, error) {
	outer, err := ev.eval(x.Outer, env)
	if err != nil {
		return nil, err
	}
	ords, err := resolveCols(x.GroupCols, x.Outer.Schema())
	if err != nil {
		return nil, err
	}
	if x.Partition == core.PartitionSort {
		outer = append([]types.Row(nil), outer...)
		sort.SliceStable(outer, func(i, j int) bool {
			return types.CompareRows(outer[i], outer[j], ords, nil) < 0
		})
	}
	// Restore whatever the variable was bound to before, so an enclosing
	// per-group query keeps reading its own group.
	name := strings.ToLower(x.GroupVar)
	prev, hadPrev := ev.ctx.groups[name]
	defer func() {
		if hadPrev {
			ev.ctx.groups[name] = prev
		} else {
			delete(ev.ctx.groups, name)
		}
	}()
	var out []types.Row
	for _, g := range groupFirstSeen(outer, ords) {
		ev.ctx.BindGroup(x.GroupVar, g)
		inner, err := ev.eval(x.Inner, env)
		if err != nil {
			return nil, err
		}
		key := g[0].Project(ords)
		for _, r := range inner {
			out = append(out, key.Concat(r))
		}
	}
	return out, nil
}

// groupFirstSeen splits rows into groups of equal key (types.Row.Key:
// NULLs group together), groups in order of first appearance and rows in
// input order within each group.
func groupFirstSeen(rows []types.Row, ords []int) [][]types.Row {
	var groups [][]types.Row
	index := make(map[string]int)
	for _, r := range rows {
		k := r.Key(ords)
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], r)
	}
	return groups
}
