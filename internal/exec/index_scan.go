package exec

import (
	"fmt"

	"gapplydb/internal/core"
	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// Index-scan operators: read a base table through an ordered secondary
// index, emitting rows in key order (ascending, equal keys in heap
// position order — the stable-sort tie rule the planner's sort elision
// relies on), optionally restricted to a key range resolved to a run
// window by two binary searches.
//
// An index scan emits exactly the rows a heap scan plus a stable sort
// would, so RowsScanned counts every emitted row, as bScan does; a
// bounded scan counts only the rows inside the window — the rows it
// actually produced.

// openIndexRun resolves the plan's table and index and returns the
// current sorted run with the [lo, hi) window its bounds select.
func openIndexRun(p *core.IndexScan, ctx *Context) (*storage.Table, *storage.IndexRun, int, int, error) {
	tab, err := ctx.Catalog.Lookup(p.Table)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	ix, err := ctx.Catalog.LookupIndex(p.Index)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	run := ix.Run(tab)
	lo, hi := indexWindow(run, p)
	return tab, run, lo, hi, nil
}

// indexWindow computes the run-offset window [lo, hi) selected by the
// scan's key bounds. Bounds are SQL comparisons: a NULL key satisfies
// none of them, and NULL keys sort first — so the presence of any bound
// starts the window past the NULL prefix. The planner only places
// bounds on single-column indexes, where a probe key compares whole-key
// (not prefix), making SeekGE/SeekGT exact brackets.
func indexWindow(run *storage.IndexRun, p *core.IndexScan) (int, int) {
	lo, hi := 0, run.Len()
	if !p.HasLo && !p.HasHi {
		return lo, hi
	}
	lo = run.SeekGT(storage.EncodeIndexKey(nil, types.Null))
	if p.HasLo {
		k := storage.EncodeIndexKey(nil, p.Lo)
		var s int
		if p.LoIncl {
			s = run.SeekGE(k)
		} else {
			s = run.SeekGT(k)
		}
		if s > lo {
			lo = s
		}
	}
	if p.HasHi {
		k := storage.EncodeIndexKey(nil, p.Hi)
		if p.HiIncl {
			hi = run.SeekGT(k)
		} else {
			hi = run.SeekGE(k)
		}
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// bIndexScan is the batch engine's index scan. Unlike bScan it cannot
// alias a window of the table's row slice — the run permutes positions —
// so each batch gathers up to batchSize row headers into a reused
// container. Row values stay untouched and stable; only the container
// is transient, per the batch ownership contract.
type bIndexScan struct {
	plan *core.IndexScan
	ctx  *Context

	table    *storage.Table
	run      *storage.IndexRun
	pos, end int
	buf      []types.Row
	out      Batch
}

func (s *bIndexScan) Open() error {
	tab, run, lo, hi, err := openIndexRun(s.plan, s.ctx)
	if err != nil {
		return err
	}
	s.table, s.run, s.pos, s.end = tab, run, lo, hi
	return nil
}

func (s *bIndexScan) NextBatch() (*Batch, error) {
	if s.pos >= s.end {
		return nil, nil
	}
	n := s.end - s.pos
	if n > batchSize {
		n = batchSize
	}
	if err := s.ctx.tickN(n); err != nil {
		return nil, err
	}
	if cap(s.buf) < n {
		s.buf = make([]types.Row, 0, batchSize)
	}
	s.buf = s.buf[:n]
	for i := 0; i < n; i++ {
		s.buf[i] = s.table.Rows[s.run.Pos[s.pos+i]]
	}
	s.pos += n
	s.ctx.Counters.RowsScanned += int64(n)
	s.out = Batch{Rows: s.buf}
	return &s.out, nil
}

func (s *bIndexScan) Close() error { return nil }

// checkIndexScan validates an IndexScan plan against the catalog at
// build time, so a stale plan (index dropped after planning) fails with
// a clear error instead of at Open.
func checkIndexScan(p *core.IndexScan, ctx *Context) error {
	ix, err := ctx.Catalog.LookupIndex(p.Index)
	if err != nil {
		return err
	}
	if (p.HasLo || p.HasHi) && len(ix.Ords()) != 1 {
		return fmt.Errorf("exec: index %q: range bounds require a single-column index", p.Index)
	}
	return nil
}
