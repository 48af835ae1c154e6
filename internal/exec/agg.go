package exec

import (
	"fmt"
	"strings"

	"gapplydb/internal/core"
	"gapplydb/internal/schema"
	"gapplydb/internal/types"
)

// accum is one aggregate's running state. SQL semantics: aggregates skip
// NULL inputs (except count(*)); on zero qualifying inputs count is 0 and
// every other aggregate is NULL — the behaviour the paper's emptyOnEmpty
// analysis reasons about.
type accum struct {
	fn       string
	star     bool
	distinct bool
	seen     map[string]bool

	rows     int64        // rows seen (count(*))
	n        int64        // non-null inputs
	sumI     types.IntSum // exact; checked against int64 in result
	sumF     float64
	anyFloat bool
	minV     types.Value
	maxV     types.Value
}

func newAccum(spec core.AggSpec) (*accum, error) {
	fn := strings.ToLower(spec.Fn)
	switch fn {
	case "count", "sum", "avg", "min", "max":
	default:
		return nil, fmt.Errorf("exec: unknown aggregate %q", spec.Fn)
	}
	a := &accum{fn: fn, star: spec.Star, distinct: spec.Distinct}
	if spec.Distinct {
		a.seen = make(map[string]bool)
	}
	return a, nil
}

func (a *accum) add(v types.Value) error {
	a.rows++
	if a.star {
		return nil
	}
	if v.IsNull() {
		return nil
	}
	if a.distinct {
		k := (types.Row{v}).KeyAll()
		if a.seen[k] {
			return nil
		}
		a.seen[k] = true
	}
	a.n++
	switch a.fn {
	case "count":
	case "sum", "avg":
		switch v.K {
		case types.KindInt:
			a.sumI.Add(v.I)
			a.sumF += float64(v.I)
		case types.KindFloat:
			a.anyFloat = true
			a.sumF += v.F
		default:
			return fmt.Errorf("exec: %s over non-numeric %s", a.fn, v.K)
		}
	case "min":
		if a.minV.IsNull() {
			a.minV = v
		} else if c, ok := types.Compare(v, a.minV); ok && c < 0 {
			a.minV = v
		}
	case "max":
		if a.maxV.IsNull() {
			a.maxV = v
		} else if c, ok := types.Compare(v, a.maxV); ok && c > 0 {
			a.maxV = v
		}
	}
	return nil
}

// result returns the aggregate's value. An integer SUM whose total does
// not fit int64 fails with types.ErrIntegerOverflow, as integer
// arithmetic does.
func (a *accum) result() (types.Value, error) {
	switch a.fn {
	case "count":
		if a.star {
			return types.NewInt(a.rows), nil
		}
		return types.NewInt(a.n), nil
	case "sum":
		if a.n == 0 {
			return types.Null, nil
		}
		if a.anyFloat {
			return types.NewFloat(a.sumF), nil
		}
		s, err := a.sumI.Int64()
		if err != nil {
			return types.Null, err
		}
		return types.NewInt(s), nil
	case "avg":
		if a.n == 0 {
			return types.Null, nil
		}
		return types.NewFloat(a.sumF / float64(a.n)), nil
	case "min":
		return a.minV, nil
	case "max":
		return a.maxV, nil
	}
	return types.Null, nil
}

// compiledAgg pairs a spec with its argument evaluator.
type compiledAgg struct {
	spec core.AggSpec
	arg  evalFn // nil for count(*)
}

func compileAggs(specs []core.AggSpec, in *schema.Schema, env compileEnv) ([]compiledAgg, error) {
	out := make([]compiledAgg, len(specs))
	for i, s := range specs {
		ca := compiledAgg{spec: s}
		if !s.Star {
			if s.Arg == nil {
				return nil, fmt.Errorf("exec: aggregate %s missing argument", s.Fn)
			}
			fn, err := compileExpr(s.Arg, in, env)
			if err != nil {
				return nil, err
			}
			ca.arg = fn
		}
		out[i] = ca
	}
	return out, nil
}

func feed(aggs []compiledAgg, states []*accum, r types.Row, ctx *Context) error {
	for i, a := range aggs {
		var v types.Value
		if a.arg != nil {
			var err error
			v, err = a.arg(r, ctx)
			if err != nil {
				return err
			}
		}
		if err := states[i].add(v); err != nil {
			return err
		}
	}
	return nil
}

func newStates(aggs []compiledAgg) ([]*accum, error) {
	states := make([]*accum, len(aggs))
	for i, a := range aggs {
		st, err := newAccum(a.spec)
		if err != nil {
			return nil, err
		}
		states[i] = st
	}
	return states, nil
}
