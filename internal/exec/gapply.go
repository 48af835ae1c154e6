package exec

import (
	"context"
	"sort"
	"sync"

	"gapplydb/internal/core"
	"gapplydb/internal/types"
)

// This file holds the pieces of the paper's physical GApply (§3) that
// the batch operator (batch_gapply.go) builds on: the Partition phase,
// which splits the outer rows into groups on the grouping columns by
// hashing or sorting, and the parRun state of the parallel Execution
// phase.

// chargePartition bills the budget for one row materialized into a
// partition, labelling a blown budget with the GApply's plan shape.
func chargePartition(ctx *Context, plan *core.GApply, r types.Row) error {
	if ctx.Budget == nil {
		return nil
	}
	operator := "GApply"
	if plan != nil {
		operator = core.Summary(plan)
	}
	return ctx.Budget.chargePartition(int64(r.Bytes()), operator)
}

// groupKeyEqual reports whether a row's grouping columns are Identical
// to a group's representative key — the exact comparison that backs the
// hash partitioner's buckets, so hash collisions can never merge
// distinct grouping keys.
func groupKeyEqual(key types.Row, r types.Row, ords []int) bool {
	for i, o := range ords {
		if !types.Identical(key[i], r[o]) {
			return false
		}
	}
	return true
}

// partitionByHash groups rows by hashing the grouping columns; group
// order is first appearance in the input, so output is deterministic.
// Buckets are keyed by the 64-bit hash, and every row is compared
// against the actual key values of the groups sharing its bucket: rows
// whose keys merely collide are split into distinct groups, so hash-
// and sort-based partitioning always produce identical groups. Each
// group is a temporary relation (paper §3) holding the outer rows'
// headers: row values are immutable once emitted (the batch ownership
// contract), so no value is copied. The budget is still charged each
// row's full byte size, the memory a group keeps alive; the projection-
// before-GApply rule shrinks that by narrowing the rows the outer plan
// emits.
func partitionByHash(rows []types.Row, ords []int, ctx *Context, plan *core.GApply) ([][]types.Row, error) {
	buckets := make(map[uint64][]int) // hash -> indexes of groups in that bucket
	var groups [][]types.Row
	var keys []types.Row // representative grouping-column values per group
	for _, r := range rows {
		if err := ctx.tick(); err != nil {
			return nil, err
		}
		h := r.Hash(ords)
		gi := -1
		for _, i := range buckets[h] {
			if groupKeyEqual(keys[i], r, ords) {
				gi = i
				break
			}
		}
		if gi < 0 {
			gi = len(groups)
			buckets[h] = append(buckets[h], gi)
			groups = append(groups, nil)
			keys = append(keys, r.Project(ords))
		}
		if err := chargePartition(ctx, plan, r); err != nil {
			return nil, err
		}
		groups[gi] = append(groups[gi], r)
	}
	return groups, nil
}

// partitionBySort sorts rows on the grouping columns, in place, and
// cuts runs (see partitionByHash for what a group holds).
func partitionBySort(rows []types.Row, ords []int, ctx *Context, plan *core.GApply) ([][]types.Row, error) {
	if err := chargePartitionRows(rows, ctx, plan); err != nil {
		return nil, err
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return types.CompareRows(rows[i], rows[j], ords, nil) < 0
	})
	return cutGroupRuns(rows, ords), nil
}

// partitionOrdered cuts group runs from an outer stream the optimizer
// proved already arrives in ascending group-key order (an ordered index
// access path): identical budget charges, cancellation points and
// resulting groups to partitionBySort — an already-ordered input is a
// fixed point of the stable sort — minus the O(n log n) sort itself.
// A violated order expectation (a planner bug, not a data property)
// falls back to the stable sort rather than emit misgrouped output; the
// verification is one comparison per row, paid inside the run cut
// anyway.
func partitionOrdered(rows []types.Row, ords []int, ctx *Context, plan *core.GApply) ([][]types.Row, error) {
	if err := chargePartitionRows(rows, ctx, plan); err != nil {
		return nil, err
	}
	for i := 1; i < len(rows); i++ {
		if types.CompareRows(rows[i-1], rows[i], ords, nil) > 0 {
			sort.SliceStable(rows, func(a, b int) bool {
				return types.CompareRows(rows[a], rows[b], ords, nil) < 0
			})
			break
		}
	}
	return cutGroupRuns(rows, ords), nil
}

// chargePartitionRows charges the budget for the drained outer rows the
// partition keeps and polls cancellation per row — the shared front
// half of both sort-family partitioners.
func chargePartitionRows(rows []types.Row, ctx *Context, plan *core.GApply) error {
	for _, r := range rows {
		if err := ctx.tick(); err != nil {
			return err
		}
		if err := chargePartition(ctx, plan, r); err != nil {
			return err
		}
	}
	return nil
}

// cutGroupRuns splits key-ordered rows into their group runs.
func cutGroupRuns(sorted []types.Row, ords []int) [][]types.Row {
	var groups [][]types.Row
	start := 0
	for i := 1; i <= len(sorted); i++ {
		if i == len(sorted) || types.CompareRows(sorted[i], sorted[start], ords, nil) != 0 {
			groups = append(groups, sorted[start:i])
			start = i
		}
	}
	return groups
}

// ---------------------------------------------- parallel execution phase

// parGroup is one group's buffered evaluation: its output rows (already
// prefixed with the grouping-column values), the execution counters the
// worker accumulated while producing them, and any error.
type parGroup struct {
	rows  []types.Row
	delta Counters
	// prof is the group's per-operator profile delta (nil when
	// instrumentation is disabled), merged like delta.
	prof map[core.Node]NodeStats
	err  error
}

// parRun is the state of one parallel execution phase. Workers claim
// group indexes from a shared counter, evaluate each claimed group
// against their private iterator tree, publish into results[i], and
// close ready[i]; the consumer (the goroutine driving Next) waits on the
// ready channels in partition order. The channel close is the only
// synchronization a result needs: the worker's writes happen before the
// close, which happens before the consumer's read.
//
// window bounds how many groups may be claimed but not yet consumed, so
// a fast worker racing ahead through small groups cannot buffer an
// unbounded prefix of the output: workers acquire a window slot before
// claiming an index and the consumer releases the slot when it emits the
// group.
//
// Shutdown — from Close, from the first group error, or from query
// cancellation — closes stop and cancels the workers' derived context,
// so a worker deep inside a large group stops within one row batch; the
// consumer never waits on a ready channel no worker will close, because
// it selects on the query context alongside every ready wait.
type parRun struct {
	results []parGroup
	ready   []chan struct{}
	window  chan struct{}
	stop    chan struct{}
	cancel  context.CancelFunc // cancels the workers' derived context
	once    sync.Once
	wg      sync.WaitGroup
}

// newParRun allocates the pool state for n groups at the given degree;
// shared by the row and batch GApply execution phases.
func newParRun(n, dop int) *parRun {
	p := &parRun{
		results: make([]parGroup, n),
		ready:   make([]chan struct{}, n),
		window:  make(chan struct{}, 2*dop),
		stop:    make(chan struct{}),
	}
	for i := range p.ready {
		p.ready[i] = make(chan struct{})
	}
	return p
}

// shutdown stops the pool — closing the claim gate and cancelling the
// workers' context so even a worker mid-group exits within a row batch —
// and waits for the workers to finish; pending results are discarded.
// Safe to call more than once.
func (p *parRun) shutdown() {
	p.once.Do(func() {
		close(p.stop)
		if p.cancel != nil {
			p.cancel()
		}
	})
	p.wg.Wait()
}
