package exec

import (
	"gapplydb/internal/core"
	"gapplydb/internal/schema"
)

// Cursor is an incrementally consumed execution of a plan. Each
// NextBatch polls the Context's cancellation signal and charges the
// output-row budget, so Run — a Cursor drained to exhaustion — and the
// network server's streaming path see the same rows, the same errors and
// the same counters, and a streamed result never exists in full on the
// server side.
//
// A Cursor, like the iterator tree it drives, belongs to a single
// goroutine. Close is idempotent and must be called even after an error
// (NextBatch errors leave the tree closed already; the extra Close is a
// no-op).
type Cursor struct {
	Schema *schema.Schema

	node   core.Node
	bit    BatchIterator
	ctx    *Context
	n      int64
	closed bool

	rem     Batch // scratch for a budget-truncated batch
	pendErr error // error to deliver on the NextBatch after a truncated batch
}

// Start compiles the plan and opens the iterator tree, returning a
// cursor positioned before the first row.
func Start(n core.Node, ctx *Context) (*Cursor, error) {
	bit, err := BuildBatch(n, ctx)
	if err != nil {
		return nil, err
	}
	if err := bit.Open(); err != nil {
		bit.Close()
		return nil, err
	}
	return &Cursor{Schema: n.Schema(), node: n, bit: bit, ctx: ctx}, nil
}

// NextBatch returns the next batch of output rows; nil with a nil error
// marks exhaustion, and any error (cancellation, deadline, budget,
// operator failure) closes the tree and is final. The batch and its rows
// follow the batch-engine ownership contract: valid until the next call
// on the cursor. When MaxOutputRows truncates mid-batch the allowed rows
// are still delivered, and the *ResourceError (with Used = max+1)
// arrives on the following call.
func (c *Cursor) NextBatch() (*Batch, error) {
	if err := c.pendErr; err != nil {
		c.pendErr = nil
		return nil, err
	}
	if c.closed {
		return nil, nil
	}
	b, err := c.bit.NextBatch()
	if err != nil {
		c.close()
		return nil, err
	}
	if b == nil {
		// A cancel that lands after the last batch still cancels the query:
		// the consumer must not mistake a raced result for a committed
		// success.
		err := c.close()
		if cerr := c.ctx.checkCancel(); cerr != nil {
			err = cerr
		}
		return nil, err
	}
	if err := c.ctx.tickN(b.Len()); err != nil {
		c.close()
		return nil, err
	}
	c.n += int64(b.Len())
	if bud := c.ctx.Budget; bud != nil && bud.MaxOutputRows > 0 && c.n > bud.MaxOutputRows {
		keep := b.Len() - int(c.n-bud.MaxOutputRows)
		c.n = bud.MaxOutputRows
		c.pendErr = &ResourceError{
			Limit: LimitOutputRows, Operator: core.Summary(c.node),
			Max: bud.MaxOutputRows, Used: bud.MaxOutputRows + 1,
		}
		c.close()
		if keep == 0 {
			err := c.pendErr
			c.pendErr = nil
			return nil, err
		}
		if b.Sel != nil {
			c.rem = Batch{Rows: b.Rows, Sel: b.Sel[:keep]}
		} else {
			c.rem = Batch{Rows: b.Rows[:keep]}
		}
		return &c.rem, nil
	}
	return b, nil
}

// Close releases the iterator tree. Safe to call more than once.
func (c *Cursor) Close() error { return c.close() }

func (c *Cursor) close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.bit.Close()
}
