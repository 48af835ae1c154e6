package exec

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"

	"gapplydb/internal/core"
	"gapplydb/internal/types"
)

// bgapply is the paper's physical GApply (§3): a Partition phase that
// splits the drained outer rows into groups on the grouping columns
// (partitionByHash, partitionBySort, or partitionOrdered when an index
// already delivers group-key order), then an Execution phase that
// evaluates the per-group query against each group with the
// relation-valued parameter bound to the group's rows. Both partition
// strategies emit results clustered by group, which is what lets the
// syntax drop the ORDER BY a sorted-outer-union query needs for a
// constant-space tagger.
//
// The execution phase runs the groups either serially through the
// prebuilt inner tree (the paper's "in succession") or — since the
// groups are independent by construction — fanned out across a bounded
// worker pool (parRun), where every worker owns a private Context and a
// private instantiation of the inner plan, and the consumer emits the
// buffered per-group results in partition order. Output, counters and
// profiles are therefore identical to serial execution, clustering
// included.
//
// Both phases are cancellation points: the partition phase polls the
// query context per outer row and charges materialized bytes against
// the resource budget; the execution phase polls per batch, and parallel
// workers stop promptly — without goroutine leaks or dropped counter
// merges — when the query is cancelled or a group fails or panics.
type bgapply struct {
	outer, inner BatchIterator
	innerPlan    core.Node
	plan         *core.GApply
	innerArity   int
	env          compileEnv
	ctx          *Context
	ords         []int
	groupVar     string
	sortPart     bool
	ordered      bool // outer provides the group-key ordering (index path)
	// correlated marks an inner with outer references: it reads rows the
	// enclosing Apply pushes onto the shared context's stack, which cannot
	// be snapshotted per worker, so such inners run serially.
	correlated bool
	spools     *spoolRegistry // nil when spooling is off or the inner has no invariant subtrees

	groups  [][]types.Row
	gpos    int
	keyVals types.Row
	started bool

	par *parRun
	win rowWindow // parallel mode: windows over the current group's rows

	outBuf joinOut
	out    Batch
}

func (g *bgapply) Open() error {
	if g.par != nil { // re-Open without an intervening Close
		g.par.shutdown()
		g.par = nil
	}
	if g.spools != nil {
		g.spools.reset()
	}
	rows, err := drainBatchRows(g.outer, g.ctx)
	if err != nil {
		return err
	}
	switch {
	case g.sortPart && g.ordered:
		g.groups, err = partitionOrdered(rows, g.ords, g.ctx, g.plan)
	case g.sortPart:
		g.groups, err = partitionBySort(rows, g.ords, g.ctx, g.plan)
	default:
		g.groups, err = partitionByHash(rows, g.ords, g.ctx, g.plan)
	}
	if err != nil {
		return err
	}
	g.ctx.Counters.Groups += int64(len(g.groups))
	g.gpos = 0
	g.started = false
	g.win.reset(nil)
	g.outBuf.width = len(g.ords) + g.innerArity
	if dop := g.degree(); dop > 1 {
		g.par = g.startWorkers(dop)
	}
	return nil
}

// degree decides how many workers the execution phase uses: the
// context's DOP (default GOMAXPROCS), clamped to the group count, and 1
// — the serial fallback — when the inner is correlated with an
// enclosing Apply.
func (g *bgapply) degree() int {
	if g.correlated {
		return 1
	}
	dop := g.ctx.DOP
	if dop <= 0 {
		dop = runtime.GOMAXPROCS(0)
	}
	if dop > len(g.groups) {
		dop = len(g.groups)
	}
	return dop
}

// advance binds the next group and opens the per-group query over it
// (serial execution phase).
func (g *bgapply) advance() (bool, error) {
	// Group boundaries are prompt cancellation points: a cancel between
	// groups is noticed before the next per-group execution starts.
	if err := g.ctx.checkCancel(); err != nil {
		return false, err
	}
	for g.gpos < len(g.groups) {
		group := g.groups[g.gpos]
		g.gpos++
		g.ctx.BindGroup(g.groupVar, group)
		g.keyVals = group[0].Project(g.ords)
		g.ctx.Counters.InnerExecs++
		g.ctx.Counters.SerialGroupExecs++
		if err := g.inner.Open(); err != nil {
			return false, err
		}
		g.started = true
		return true, nil
	}
	return false, nil
}

func (g *bgapply) NextBatch() (*Batch, error) {
	if g.par != nil {
		return g.parNextBatch()
	}
	g.outBuf.reset()
	for len(g.outBuf.rows) < batchSize {
		if !g.started {
			ok, err := g.advance()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
		b, err := g.inner.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			if err := g.inner.Close(); err != nil {
				return nil, err
			}
			g.started = false
			continue
		}
		for i, n := 0, b.Len(); i < n; i++ {
			g.outBuf.add(g.keyVals, b.Row(i))
		}
	}
	if len(g.outBuf.rows) == 0 {
		return nil, nil
	}
	g.out = Batch{Rows: g.outBuf.rows}
	return &g.out, nil
}

func (g *bgapply) Close() error {
	if g.par != nil {
		g.par.shutdown()
		g.par = nil
	}
	g.groups = nil
	g.win.reset(nil)
	if g.started {
		g.started = false
		return g.inner.Close()
	}
	return nil
}

// startWorkers launches the pool for the groups partitioned by Open.
// The pool captures the partition snapshot (not the bgapply fields): a
// later Close/Open on the iterator must not yank state out from under
// workers that are still winding down.
func (g *bgapply) startWorkers(dop int) *parRun {
	groups := g.groups
	n := len(groups)
	p := newParRun(n, dop)
	parent := g.ctx.Ctx
	if parent == nil {
		parent = context.Background()
	}
	wctxCtx, cancel := context.WithCancel(parent)
	p.cancel = cancel
	var next atomic.Int64
	var failed atomic.Bool
	p.wg.Add(dop)
	for w := 0; w < dop; w++ {
		go func() {
			defer p.wg.Done()
			wctx := g.ctx.fork()
			wctx.Ctx = wctxCtx
			wctx.spools = g.spools
			var inner BatchIterator
			for {
				select {
				case <-p.stop:
					return
				case <-wctxCtx.Done():
					return
				case p.window <- struct{}{}:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				// After any group fails the run's outcome is decided (the
				// consumer stops at the first error in partition order), so
				// later groups complete empty instead of doing work.
				if failed.Load() {
					close(p.ready[i])
					continue
				}
				res := g.runGroup(wctx, &inner, groups[i])
				if res.err != nil {
					failed.Store(true)
				}
				p.results[i] = res
				close(p.ready[i])
			}
		}()
	}
	return p
}

// runGroup evaluates one group on a worker, instantiating the worker's
// private inner tree on first use. It contains any panic in the group's
// execution: no caller can recover a panic on another goroutine, so an
// escaped one would take the whole process — and every session of a
// server — down with it. The panic becomes the group's error, stack
// included, and the pool shuts down as it does for any group error. The
// tree is dropped, since its state after a panic is unknown.
func (g *bgapply) runGroup(wctx *Context, inner *BatchIterator, group []types.Row) (res parGroup) {
	defer func() {
		if r := recover(); r != nil {
			*inner = nil
			res = parGroup{err: fmt.Errorf("exec: panic in GApply per-group query: %v\n%s", r, debug.Stack())}
		}
	}()
	if *inner == nil {
		// Compilation already succeeded once against the same plan, so an
		// error here is unexpected, but it is still the group's error.
		it, err := buildBatch(g.innerPlan, wctx, g.env)
		if err != nil {
			return parGroup{err: err}
		}
		*inner = it
	}
	return g.evalGroup(wctx, *inner, group)
}

// evalGroup runs the per-group query over one group on a worker's
// private context and batch tree, buffering the output rows with the
// grouping columns prefixed in one slab (the same row layout the serial
// phase emits) together with the group's counter and profile deltas.
func (g *bgapply) evalGroup(wctx *Context, inner BatchIterator, group []types.Row) parGroup {
	before := wctx.Counters
	var profBefore map[core.Node]NodeStats
	if wctx.Prof != nil {
		profBefore = wctx.Prof.snapshot()
	}
	wctx.BindGroup(g.groupVar, group)
	wctx.Counters.InnerExecs++
	wctx.Counters.ParallelGroupExecs++
	key := group[0].Project(g.ords)
	rows, err := drainBatchRows(inner, wctx)
	out := parGroup{err: err}
	if err == nil {
		total := 0
		for _, r := range rows {
			total += len(key) + len(r)
		}
		slab := make(types.Row, 0, total)
		out.rows = make([]types.Row, len(rows))
		for i, r := range rows {
			start := len(slab)
			slab = append(slab, key...)
			slab = append(slab, r...)
			out.rows[i] = slab[start:len(slab):len(slab)]
		}
	}
	out.delta = wctx.Counters.Sub(before)
	if wctx.Prof != nil {
		out.prof = wctx.Prof.since(profBefore)
	}
	return out
}

// parNextBatch emits the buffered groups in partition order as batch
// windows, merging each group's counter and profile deltas into the
// parent context as it is consumed. The first group error — in
// partition order, matching what serial execution would surface — shuts
// the pool down and is returned; a cancelled query stops the wait for
// the next group immediately rather than blocking on a ready channel its
// worker may never close.
func (g *bgapply) parNextBatch() (*Batch, error) {
	for {
		if b := g.win.next(); b != nil {
			return b, nil
		}
		if g.gpos >= len(g.groups) {
			// A cancel that lands after the last group still cancels.
			if err := g.ctx.checkCancel(); err != nil {
				return nil, err
			}
			return nil, nil
		}
		i := g.gpos
		g.gpos++
		var done <-chan struct{}
		if g.ctx.Ctx != nil {
			done = g.ctx.Ctx.Done()
		}
		select {
		case <-g.par.ready[i]:
		case <-done:
			g.par.shutdown()
			return nil, context.Cause(g.ctx.Ctx)
		}
		res := g.par.results[i]
		g.par.results[i] = parGroup{}
		<-g.par.window
		g.ctx.Counters.Add(res.delta)
		if g.ctx.Prof != nil && res.prof != nil {
			g.ctx.Prof.merge(res.prof)
		}
		if res.err != nil {
			g.par.shutdown()
			return nil, res.err
		}
		g.win.reset(res.rows)
	}
}
