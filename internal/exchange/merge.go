package exchange

import (
	"fmt"
	"math"

	"gapplydb/internal/types"
)

// CompareValues is types.SortCompare transplanted onto decoded wire
// values (nil, int64, float64, string, bool): NULL sorts first,
// int/float cross-compare exactly, NaN orders after every non-NaN
// float and equals itself, and incomparable kinds order by kind tag.
// The coordinator merges what shards send over the wire, so the
// comparator must agree with the engine's sort order on those
// representations bit for bit (dates travel as int64 and keep the
// engine's date order).
func CompareValues(a, b any) int {
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		default:
			return 1
		}
	}
	switch av := a.(type) {
	case int64:
		switch bv := b.(type) {
		case int64:
			return cmpOrdered(av, bv)
		case float64:
			return compareIntFloat(av, bv)
		}
	case float64:
		switch bv := b.(type) {
		case int64:
			return -compareIntFloat(bv, av)
		case float64:
			switch {
			case av < bv:
				return -1
			case av > bv:
				return 1
			case av == bv:
				return 0
			}
			// At least one NaN: NaN sorts after every non-NaN float
			// and equals itself.
			switch {
			case math.IsNaN(av) && math.IsNaN(bv):
				return 0
			case math.IsNaN(av):
				return 1
			default:
				return -1
			}
		}
	case string:
		if bv, ok := b.(string); ok {
			return cmpOrdered(av, bv)
		}
	case bool:
		if bv, ok := b.(bool); ok {
			switch {
			case av == bv:
				return 0
			case !av:
				return -1
			default:
				return 1
			}
		}
	}
	// Incomparable kinds: order by kind tag, mirroring types.Kind order.
	return cmpOrdered(kindRank(a), kindRank(b))
}

func cmpOrdered[T int | int64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// kindRank mirrors the types.Kind tag order (Null, Int, Float, String,
// Bool) for the wire representations.
func kindRank(v any) int {
	switch v.(type) {
	case nil:
		return 0
	case int64:
		return 1
	case float64:
		return 2
	case string:
		return 3
	case bool:
		return 4
	default:
		return 5
	}
}

// compareIntFloat compares an int64 against a float64 exactly, without
// rounding the integer through a float64 image; it is the same total
// placement as the engine's (NaN after every integer).
func compareIntFloat(i int64, f float64) int {
	const maxInt64f = 9223372036854775808.0 // 2^63, exactly representable
	switch {
	case math.IsNaN(f):
		return -1
	case f >= maxInt64f:
		return -1
	case f < -maxInt64f:
		return 1
	}
	t := math.Trunc(f) // in [-2^63, 2^63): int64(t) is defined
	ti := int64(t)
	switch {
	case i < ti:
		return -1
	case i > ti:
		return 1
	case f > t: // equal integer parts; a positive fraction makes f larger
		return -1
	case f < t:
		return 1
	}
	return 0
}

// CompareRows orders two rows on the merge keys (Desc reverses a key).
func CompareRows(a, b []any, keys []MergeKey) int {
	for _, k := range keys {
		c := CompareValues(a[k.Ord], b[k.Ord])
		if k.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// RowSource is one shard's result stream as the merge consumes it.
type RowSource interface {
	// Next returns the next row, or ok=false at end of stream.
	Next() (row []any, ok bool, err error)
}

// Merge is the order-preserving gather: a k-way merge of per-shard
// streams on the merge keys. Per-source order is preserved, and ties
// across sources break by source index — by construction ties across
// shards cannot occur when a merge key is a partition key, so the
// tie-break only makes the order total, it never decides real output.
type Merge struct {
	keys  []MergeKey
	srcs  []RowSource
	heads [][]any
	done  []bool
	init  bool
}

// NewMerge builds a merge over the sources; Next pulls lazily.
func NewMerge(srcs []RowSource, keys []MergeKey) *Merge {
	return &Merge{
		keys:  keys,
		srcs:  srcs,
		heads: make([][]any, len(srcs)),
		done:  make([]bool, len(srcs)),
	}
}

// Next returns the globally next row, or ok=false when every source is
// exhausted. The first error from any source stops the merge.
func (m *Merge) Next() ([]any, bool, error) {
	if !m.init {
		m.init = true
		for i := range m.srcs {
			if err := m.pull(i); err != nil {
				return nil, false, err
			}
		}
	}
	best := -1
	for i, h := range m.heads {
		if m.done[i] || h == nil {
			continue
		}
		if best < 0 || CompareRows(h, m.heads[best], m.keys) < 0 {
			best = i
		}
	}
	if best < 0 {
		return nil, false, nil
	}
	row := m.heads[best]
	if err := m.pull(best); err != nil {
		return nil, false, err
	}
	return row, true, nil
}

func (m *Merge) pull(i int) error {
	row, ok, err := m.srcs[i].Next()
	if err != nil {
		return err
	}
	if !ok {
		m.done[i] = true
		m.heads[i] = nil
		return nil
	}
	m.heads[i] = row
	return nil
}

// CombineAggRows folds per-shard partial aggregate rows (exactly one
// row per shard, one combine per column) into the global row. NULL
// partials come from empty shards and are skipped; an all-NULL column
// stays NULL — except counts, which are never NULL and sum from zero.
// Integer partials add exactly (types.IntSum); a total that does not
// fit int64 fails with types.ErrIntegerOverflow, as the engine's own
// SUM does.
func CombineAggRows(rows [][]any, combines []CombineFn) ([]any, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("exchange: no partial aggregate rows to combine")
	}
	out := make([]any, len(combines))
	for j, fn := range combines {
		var acc any
		var sum types.IntSum
		summed := fn == CombineCount // a count is never NULL
		for i, row := range rows {
			if len(row) != len(combines) {
				return nil, fmt.Errorf("exchange: partial row %d has %d columns, want %d", i, len(row), len(combines))
			}
			v := row[j]
			if v == nil {
				continue
			}
			switch fn {
			case CombineCount, CombineSum:
				n, ok := v.(int64)
				if !ok {
					return nil, fmt.Errorf("exchange: partial %v is %T, want int64", v, v)
				}
				sum.Add(n)
				summed = true
			case CombineMin:
				if acc == nil || CompareValues(v, acc) < 0 {
					acc = v
				}
			case CombineMax:
				if acc == nil || CompareValues(v, acc) > 0 {
					acc = v
				}
			}
		}
		if summed {
			total, err := sum.Int64()
			if err != nil {
				return nil, err
			}
			acc = total
		}
		out[j] = acc
	}
	return out, nil
}
