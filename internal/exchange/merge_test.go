package exchange

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"gapplydb/internal/types"
)

// toValue maps a decoded wire value back to the engine value it came
// from, for checking that CompareValues mirrors types.SortCompare.
func toValue(t *testing.T, v any) types.Value {
	t.Helper()
	switch x := v.(type) {
	case nil:
		return types.Null
	case int64:
		return types.NewInt(x)
	case float64:
		return types.NewFloat(x)
	case string:
		return types.NewString(x)
	case bool:
		return types.NewBool(x)
	default:
		t.Fatalf("no wire mapping for %T", v)
		return types.Null
	}
}

func TestCompareValuesMirrorsSortCompare(t *testing.T) {
	vals := []any{
		nil,
		int64(math.MinInt64), int64(-1), int64(0), int64(7), int64(math.MaxInt64),
		int64(1 << 53), int64(1<<53 + 1), // beyond float64 precision
		-math.MaxFloat64, -1.5, math.Copysign(0, -1), 0.0, 6.9, 7.0, 7.1,
		9.3e18, math.Inf(-1), math.Inf(1), math.NaN(),
		"", "a", "a\x00b", "z",
		false, true,
	}
	for _, a := range vals {
		for _, b := range vals {
			got := CompareValues(a, b)
			want := types.SortCompare(toValue(t, a), toValue(t, b))
			if got != want {
				t.Errorf("CompareValues(%#v, %#v) = %d, SortCompare = %d", a, b, got, want)
			}
		}
	}
}

func TestCompareRowsDesc(t *testing.T) {
	keys := []MergeKey{{Ord: 0, Desc: true}, {Ord: 1}}
	a := []any{int64(5), "x"}
	b := []any{int64(3), "x"}
	if c := CompareRows(a, b, keys); c >= 0 {
		t.Errorf("desc key: CompareRows = %d, want < 0", c)
	}
	c := []any{int64(5), "a"}
	if got := CompareRows(a, c, keys); got <= 0 {
		t.Errorf("tie on desc key falls to asc key: %d, want > 0", got)
	}
}

type sliceSource struct {
	rows [][]any
	i    int
}

func (s *sliceSource) Next() ([]any, bool, error) {
	if s.i >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.i]
	s.i++
	return r, true, nil
}

// TestMergeReproducesGlobalStream builds a globally sorted stream,
// restricts it to three shards by hashing the key column (so ties stay
// within one shard, as partitioning guarantees), and checks the merge
// reassembles the global stream exactly.
func TestMergeReproducesGlobalStream(t *testing.T) {
	var global [][]any
	for i := 0; i < 200; i++ {
		key := int64(i % 37) // duplicates, all on one shard
		global = append(global, []any{key, int64(i)})
	}
	sort.SliceStable(global, func(i, j int) bool {
		return global[i][0].(int64) < global[j][0].(int64)
	})

	shards := make([][][]any, 3)
	for _, r := range global {
		s := int(r[0].(int64)) % 3
		shards[s] = append(shards[s], r)
	}
	srcs := make([]RowSource, 3)
	for i := range shards {
		srcs[i] = &sliceSource{rows: shards[i]}
	}

	m := NewMerge(srcs, []MergeKey{{Ord: 0}})
	var got [][]any
	for {
		row, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, row)
	}
	if !reflect.DeepEqual(got, global) {
		t.Fatalf("merge diverged from global stream:\ngot  %v\nwant %v", got[:10], global[:10])
	}
}

func TestMergeDescending(t *testing.T) {
	s0 := &sliceSource{rows: [][]any{{int64(9)}, {int64(3)}}}
	s1 := &sliceSource{rows: [][]any{{int64(8)}, {int64(2)}}}
	m := NewMerge([]RowSource{s0, s1}, []MergeKey{{Ord: 0, Desc: true}})
	var got []int64
	for {
		row, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, row[0].(int64))
	}
	if want := []int64{9, 8, 3, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("desc merge = %v, want %v", got, want)
	}
}

func TestCombineAggRows(t *testing.T) {
	rows := [][]any{
		{int64(3), int64(10), int64(2), "m", nil},
		{int64(0), nil, int64(-5), "a", nil},
		{int64(4), int64(1), nil, "z", nil},
	}
	combines := []CombineFn{CombineCount, CombineSum, CombineMin, CombineMax, CombineSum}
	got, err := CombineAggRows(rows, combines)
	if err != nil {
		t.Fatal(err)
	}
	want := []any{int64(7), int64(11), int64(-5), "z", nil}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("combined = %#v, want %#v", got, want)
	}

	// A count over entirely empty shards is 0, not NULL.
	empty, err := CombineAggRows([][]any{{nil}, {nil}}, []CombineFn{CombineCount})
	if err != nil || empty[0] != int64(0) {
		t.Fatalf("empty count = %#v err=%v", empty, err)
	}

	if _, err := CombineAggRows([][]any{{"x"}}, []CombineFn{CombineSum}); err == nil {
		t.Fatal("non-integer sum partial accepted")
	}
	if _, err := CombineAggRows(nil, []CombineFn{CombineCount}); err == nil {
		t.Fatal("zero shard rows accepted")
	}

	// Integer partials add exactly: a running total may leave int64 on
	// the way, but a global total outside it is an error, never a wrap.
	const maxI = int64(math.MaxInt64)
	exact, err := CombineAggRows([][]any{{maxI}, {int64(1)}, {int64(-1)}}, []CombineFn{CombineSum})
	if err != nil || exact[0] != maxI {
		t.Fatalf("sum(MaxInt64, 1, -1) = %#v err=%v, want MaxInt64", exact, err)
	}
	if got, err := CombineAggRows([][]any{{maxI}, {maxI}}, []CombineFn{CombineSum}); !errors.Is(err, types.ErrIntegerOverflow) {
		t.Fatalf("sum(MaxInt64, MaxInt64) = %#v err=%v, want types.ErrIntegerOverflow", got, err)
	}
}
