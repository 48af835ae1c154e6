package exec

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"gapplydb/internal/core"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// grouped builds the obs table with n rows spread over g groups.
func groupedCatalog(t *testing.T, groups, perGroup int) *storage.Catalog {
	t.Helper()
	keys := make([]types.Value, 0, groups*perGroup)
	for i := 0; i < groups*perGroup; i++ {
		keys = append(keys, types.NewInt(int64(i%groups)))
	}
	return keyTable(t, types.KindInt, keys)
}

// heavySelfJoin is a per-group query expensive enough that cancellation
// must interrupt it mid-group: a nested-loops self-join of the group
// (quadratic in group size) under a count.
func heavySelfJoin(ctx *Context) *core.GApply {
	gs := func() core.Node { return &core.GroupScan{Var: "g"} }
	j := &core.Join{
		Left:  core.NewProject(gs(), []core.Expr{core.Col("v")}, []string{"a"}),
		Right: core.NewProject(gs(), []core.Expr{core.Col("v")}, []string{"b"}),
		Cond:  &core.Cmp{Op: "<", L: core.Col("a"), R: core.Col("b")},
	}
	agg := &core.AggOp{Input: j, Aggs: []core.AggSpec{{Fn: "count", Star: true, As: "n"}}}
	return core.NewGApply(scan(ctx, "obs"), []*core.ColRef{core.Col("k")}, "g", agg)
}

// waitNoExtraGoroutines fails the test if the goroutine count does not
// return to the baseline (worker wind-down is synchronous, but the
// runtime's bookkeeping may trail the final wg.Wait by a beat).
func waitNoExtraGoroutines(t *testing.T, base int) {
	t.Helper()
	var n int
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if n = runtime.NumGoroutine(); n <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutine leak: %d at baseline, %d after\n%s", base, n, buf[:runtime.Stack(buf, true)])
}

// TestCancelDuringPartitionPhase drives the partition functions directly
// with an already-cancelled context: both strategies must abandon the
// phase with context.Canceled instead of materializing every group.
func TestCancelDuringPartitionPhase(t *testing.T) {
	rows := make([]types.Row, 4096)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i % 32)), types.NewInt(int64(i))}
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, part := range map[string]func([]types.Row, []int, *Context, *core.GApply) ([][]types.Row, error){
		"hash": partitionByHash,
		"sort": partitionBySort,
	} {
		ctx := NewContext(buildFixtureCatalog())
		ctx.Ctx = cctx
		if _, err := part(rows, []int{0}, ctx, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("%s partition with cancelled ctx: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestCancelBeforeExecution: a query started on an already-cancelled (or
// already-expired) context fails with the context's error — for both
// partition strategies, serial and parallel alike.
func TestCancelBeforeExecution(t *testing.T) {
	cat := groupedCatalog(t, 32, 32)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	<-expired.Done()
	for _, dop := range []int{1, 8} {
		for _, hint := range []core.PartitionHint{core.PartitionHash, core.PartitionSort} {
			ctx := NewContext(cat)
			ctx.DOP = dop
			ctx.Ctx = cancelled
			ga := heavySelfJoin(ctx)
			ga.Partition = hint
			if _, err := Run(ga, ctx); !errors.Is(err, context.Canceled) {
				t.Errorf("dop=%d %v: err = %v, want context.Canceled", dop, hint, err)
			}

			tctx := NewContext(cat)
			tctx.DOP = dop
			tctx.Ctx = expired
			ga = heavySelfJoin(tctx)
			ga.Partition = hint
			if _, err := Run(ga, tctx); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("dop=%d %v: err = %v, want context.DeadlineExceeded", dop, hint, err)
			}
		}
	}
}

// TestCancelMidExecutionParallel is the acceptance check for the
// cancellation path: a parallel GApply at dop 8, cancelled after its
// first output row, must surface context.Canceled within 100ms —
// workers mid-group included — and leak no goroutines.
func TestCancelMidExecutionParallel(t *testing.T) {
	cat := groupedCatalog(t, 64, 150)
	base := runtime.NumGoroutine()
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := NewContext(cat)
	ctx.DOP = 8
	ctx.Ctx = cctx
	it, err := BuildBatch(heavySelfJoin(ctx), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	if b, err := it.NextBatch(); err != nil || b == nil {
		t.Fatalf("first batch: %v err=%v", b, err)
	}
	cancel()
	start := time.Now()
	var nextErr error
	for {
		b, err := it.NextBatch()
		if err != nil {
			nextErr = err
			break
		}
		if b == nil {
			break
		}
	}
	elapsed := time.Since(start)
	if !errors.Is(nextErr, context.Canceled) {
		t.Fatalf("err after cancel = %v, want context.Canceled", nextErr)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("cancellation took %v, want ≤ 100ms", elapsed)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	waitNoExtraGoroutines(t, base)
}

// TestCancelAfterLastRow: a cancel that lands after the final row has
// been produced must still surface — the caller must never mistake a
// result raced by cancellation for a committed success.
func TestCancelAfterLastRow(t *testing.T) {
	for _, dop := range []int{1, 8} {
		cctx, cancel := context.WithCancel(context.Background())
		ctx := fixture(t)
		ctx.DOP = dop
		ctx.Ctx = cctx
		it, err := BuildBatch(gapplyQ1(ctx, core.PartitionHash), ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := it.Open(); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 7; { // Q1 over the fixture emits exactly 7 rows
			b, err := it.NextBatch()
			if err != nil || b == nil {
				t.Fatalf("dop=%d after %d rows: batch=%v err=%v", dop, n, b, err)
			}
			n += b.Len()
		}
		cancel()
		if _, err := it.NextBatch(); !errorsIsCanceled(err) {
			t.Errorf("dop=%d: NextBatch after last row with cancel = %v, want context.Canceled", dop, err)
		}
		it.Close()
	}

	// Run-level: the materializing driver applies the same rule.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := fixture(t)
	ctx.Ctx = cctx
	if _, err := Run(scan(ctx, "supplier"), ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("Run on cancelled ctx = %v, want context.Canceled", err)
	}
}

func errorsIsCanceled(err error) bool { return errors.Is(err, context.Canceled) }

// TestParallelGroupErrorPropagatesNoLeak injects a failing per-group
// query (division by zero in exactly one group) at dop 8: the first
// error in partition order must propagate, every worker must be
// drained, and no goroutine may leak.
func TestParallelGroupErrorPropagatesNoLeak(t *testing.T) {
	cat := groupedCatalog(t, 64, 10)
	base := runtime.NumGoroutine()

	mk := func(ctx *Context) *core.GApply {
		gs := &core.GroupScan{Var: "g"}
		// 1 / (k - 3): fails exactly in the group with key 3.
		boom := &core.BinOp{Op: "/", L: core.LitInt(1),
			R: &core.BinOp{Op: "-", L: core.Col("k"), R: core.LitInt(3)}}
		pgq := core.NewProject(gs, []core.Expr{boom}, []string{"boom"})
		return core.NewGApply(scan(ctx, "obs"), []*core.ColRef{core.Col("k")}, "g", pgq)
	}

	ctx := NewContext(cat)
	ctx.DOP = 8
	_, err := Run(mk(ctx), ctx)
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("err = %v, want the injected division by zero", err)
	}
	waitNoExtraGoroutines(t, base)

	// The parallel path surfaces the same error serial execution does.
	sctx := NewContext(cat)
	sctx.DOP = 1
	_, serr := Run(mk(sctx), sctx)
	if serr == nil || serr.Error() != err.Error() {
		t.Errorf("parallel error %q != serial error %q", err, serr)
	}
	waitNoExtraGoroutines(t, base)
}

// TestParallelGroupPanicContained makes one group's per-group query
// panic inside a dop-8 worker: the panic must come back as the query's
// error, stack included, instead of killing the process; the pool must
// wind down without leaking goroutines; and a query running
// concurrently on the same catalog must be unaffected.
func TestParallelGroupPanicContained(t *testing.T) {
	cat := groupedCatalog(t, 64, 10)
	tab, err := cat.Lookup("obs")
	if err != nil {
		t.Fatal(err)
	}
	// A one-column row, appended behind the storage layer's back, puts a
	// row without a v column into the group with key 3. Partitioning reads
	// only k, so the index-out-of-range panic fires in the per-group query.
	tab.Rows = append(tab.Rows, types.Row{types.NewInt(3)})
	perGroup := func(ctx *Context, agg core.AggSpec) *core.GApply {
		inner := &core.AggOp{Input: &core.GroupScan{Var: "g"}, Aggs: []core.AggSpec{agg}}
		return core.NewGApply(scan(ctx, "obs"), []*core.ColRef{core.Col("k")}, "g", inner)
	}
	count := core.AggSpec{Fn: "count", Star: true, As: "n"} // never reads v
	sum := core.AggSpec{Fn: "sum", Arg: core.Col("v"), As: "s"}

	runCount := func() ([]string, error) {
		ctx := NewContext(cat)
		ctx.DOP = 8
		res, err := Run(perGroup(ctx, count), ctx)
		if err != nil {
			return nil, err
		}
		return renderRows(res.Rows), nil
	}
	want, err := runCount()
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	var got []string
	var gotErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20 && gotErr == nil; i++ {
			got, gotErr = runCount()
		}
	}()

	ctx := NewContext(cat)
	ctx.DOP = 8
	_, err = Run(perGroup(ctx, sum), ctx)
	if err == nil || !strings.Contains(err.Error(), "panic") || !strings.Contains(err.Error(), "index out of range") {
		t.Fatalf("err = %v, want the contained index-out-of-range panic", err)
	}
	if !strings.Contains(err.Error(), "runGroup") {
		t.Errorf("panic error carries no stack:\n%v", err)
	}
	<-done
	if gotErr != nil {
		t.Fatalf("concurrent query: %v", gotErr)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("concurrent query diverged:\n%v\nwant:\n%v", got, want)
	}
	waitNoExtraGoroutines(t, base)
}

// panicIter is a batch iterator whose first pull panics.
type panicIter struct{}

func (panicIter) Open() error                { return nil }
func (panicIter) NextBatch() (*Batch, error) { panic("boom") }
func (panicIter) Close() error               { return nil }

// TestSpoolBuildPanicFailsLaterOpens: a spool materialization is shared
// by every worker's tree. When its build panics (the worker recovers and
// reports it), the other trees' Opens of the same holder must fail, not
// replay an empty materialization as if the subtree produced no rows.
func TestSpoolBuildPanicFailsLaterOpens(t *testing.T) {
	ctx := fixture(t)
	node := scan(ctx, "part")
	reg := newSpoolRegistry([]core.Node{node})
	reg.reset()
	open := func() error {
		return (&bspool{inner: panicIter{}, node: node, h: reg.holders[node], ctx: ctx}).Open()
	}
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		_ = open()
		return false
	}()
	if !panicked {
		t.Fatal("the build's panic did not propagate")
	}
	if err := open(); !errors.Is(err, errSpoolPanicked) {
		t.Fatalf("Open after a panicked build = %v, want errSpoolPanicked", err)
	}
}

// TestCancelledWorkersDropCleanly: cancelling mid-run and then closing
// must not deadlock Close or leak the pool, and the iterator must be
// reusable after a fresh Open (Apply depends on re-execution).
func TestCancelReopenAfterCancel(t *testing.T) {
	cat := groupedCatalog(t, 16, 40)
	cctx, cancel := context.WithCancel(context.Background())
	ctx := NewContext(cat)
	ctx.DOP = 4
	ctx.Ctx = cctx
	it, err := BuildBatch(heavySelfJoin(ctx), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	if b, err := it.NextBatch(); err != nil || b == nil {
		t.Fatalf("first batch: %v err=%v", b, err)
	}
	cancel()
	for {
		if b, err := it.NextBatch(); err != nil || b == nil {
			break
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	// Clear the cancellation and re-execute: full results this time.
	ctx.Ctx = context.Background()
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		b, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		n += b.Len()
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if n != 16 { // one count row per group
		t.Errorf("re-opened run = %d rows, want 16", n)
	}
}
