package exec

import (
	"bytes"
	"sort"

	"gapplydb/internal/storage"
	"gapplydb/internal/types"
)

// Merge join: the right input arrives in equi-key order (an IndexScan
// placed by the optimizer's order pass), so instead of building a hash
// table the join materializes the right rows with their order-encoded
// keys and binary-searches the equal range for each streaming left row.
//
// Output is byte-identical to the hash join by construction: the left
// streams in its original order (never reordered), and within a left
// row matches emit in right-input order — which is exactly the hash
// bucket's insertion order, since the hash build drains the same right
// input. The order-preserving key encoding is canonical over value
// equality (cross-type numerics, -0.0, NaN), so the equal range brackets
// exactly the rows a hash bucket would hold.

// mergeRun is the materialized right side: rows in key order with their
// encoded keys, sharing one backing buffer.
type mergeRun struct {
	rows []types.Row
	keys [][]byte
}

// newMergeRun encodes the key column of each row and verifies the
// stream's ordering. The planner guarantees key order; if the check ever
// fails (a planner bug, or an order-providing input that lied), the run
// re-establishes it with a stable sort — identical tie order — rather
// than emit misjoined output.
func newMergeRun(rows []types.Row, ord int) *mergeRun {
	keys := make([][]byte, len(rows))
	buf := make([]byte, 0, len(rows)*16)
	for i, r := range rows {
		start := len(buf)
		buf = r[ord].AppendOrderKey(buf)
		keys[i] = buf[start:len(buf):len(buf)]
	}
	sorted := true
	for i := 1; i < len(keys); i++ {
		if bytes.Compare(keys[i-1], keys[i]) > 0 {
			sorted = false
			break
		}
	}
	if !sorted {
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			return bytes.Compare(keys[idx[a]], keys[idx[b]]) < 0
		})
		srows := make([]types.Row, len(rows))
		skeys := make([][]byte, len(rows))
		for i, p := range idx {
			srows[i], skeys[i] = rows[p], keys[p]
		}
		rows, keys = srows, skeys
	}
	return &mergeRun{rows: rows, keys: keys}
}

// equalRange returns the window [lo, hi) of entries whose key equals k.
func (m *mergeRun) equalRange(k []byte) (int, int) {
	lo := sort.Search(len(m.keys), func(i int) bool { return bytes.Compare(m.keys[i], k) >= 0 })
	hi := lo
	for hi < len(m.keys) && bytes.Equal(m.keys[hi], k) {
		hi++
	}
	return lo, hi
}

// bMergeJoin is the batch engine's merge join, mirroring bHashJoin's
// cursor structure, reused probe row, fused post-filter, residual-free
// fast path (pred == nil when the equi-key covers the whole condition),
// and output slab discipline — with the hash table replaced by the
// key-ordered run and bucket lookups by binary search.
type bMergeJoin struct {
	left, right BatchIterator
	pred        func(types.Row, *Context) (bool, error)
	post        func(types.Row, *Context) (bool, error)
	ctx         *Context
	leftOrd     int
	rightOrd    int
	outerJoin   bool
	rightArity  int
	width       int

	run    *mergeRun
	runGen uint64
	hasGen bool
	keyBuf []byte

	lb       *Batch
	li       int
	cur      types.Row
	bucket   []types.Row
	bpos     int
	matched  bool
	nulls    types.Row
	probeRow types.Row

	outBuf joinOut
	out    Batch
}

func (m *bMergeJoin) Open() error {
	if err := m.right.Open(); err != nil {
		return err
	}
	rebuild := true
	if cv, ok := m.right.(contentVersioned); ok {
		if gen, stable := cv.contentGen(); stable {
			if m.hasGen && m.run != nil && gen == m.runGen {
				rebuild = false
			} else {
				m.runGen, m.hasGen = gen, true
			}
		} else {
			m.hasGen = false
		}
	}
	if rebuild {
		var rows []types.Row
		for {
			b, err := m.right.NextBatch()
			if err != nil {
				return err
			}
			if b == nil {
				break
			}
			if err := m.ctx.tickN(b.Len()); err != nil {
				return err
			}
			rows = b.AppendRows(rows)
		}
		m.run = newMergeRun(rows, m.rightOrd)
	}
	if err := m.right.Close(); err != nil {
		return err
	}
	m.lb, m.li = nil, 0
	m.cur, m.bucket, m.bpos = nil, nil, 0
	if m.nulls == nil {
		m.nulls = make(types.Row, m.rightArity)
	}
	if (m.pred != nil || m.post != nil) && m.probeRow == nil {
		m.probeRow = make(types.Row, m.width)
	}
	return m.left.Open()
}

func (m *bMergeJoin) advanceLeft() (bool, error) {
	for m.lb == nil || m.li >= m.lb.Len() {
		b, err := m.left.NextBatch()
		if err != nil {
			return false, err
		}
		if b == nil {
			return false, nil
		}
		m.lb, m.li = b, 0
	}
	r := m.lb.Row(m.li)
	m.li++
	m.ctx.Counters.JoinProbes++
	m.cur = r
	if m.pred != nil || m.post != nil {
		copy(m.probeRow, r)
	}
	if r[m.leftOrd].IsNull() {
		m.bucket = nil
	} else {
		m.keyBuf = storage.EncodeIndexKey(m.keyBuf[:0], r[m.leftOrd])
		lo, hi := m.run.equalRange(m.keyBuf)
		m.bucket = m.run.rows[lo:hi]
	}
	m.bpos, m.matched = 0, false
	return true, nil
}

func (m *bMergeJoin) NextBatch() (*Batch, error) {
	m.outBuf.reset()
	for len(m.outBuf.rows) < batchSize {
		if m.cur == nil {
			ok, err := m.advanceLeft()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
		if m.pred == nil && m.post == nil {
			// Residual-free: every row in the equal range is a match.
			n := len(m.bucket) - m.bpos
			if room := batchSize - len(m.outBuf.rows); n > room {
				n = room
			}
			for i := 0; i < n; i++ {
				m.outBuf.add(m.cur, m.bucket[m.bpos+i])
			}
			m.bpos += n
			if n > 0 {
				m.matched = true
			}
		} else {
			for m.bpos < len(m.bucket) && len(m.outBuf.rows) < batchSize {
				rr := m.bucket[m.bpos]
				m.bpos++
				copy(m.probeRow[len(m.cur):], rr)
				if m.pred != nil {
					pass, err := m.pred(m.probeRow, m.ctx)
					if err != nil {
						return nil, err
					}
					if !pass {
						continue
					}
				}
				m.matched = true
				if m.post != nil {
					pass, err := m.post(m.probeRow, m.ctx)
					if err != nil {
						return nil, err
					}
					if !pass {
						continue
					}
				}
				m.outBuf.add(m.cur, rr)
			}
		}
		if m.bpos >= len(m.bucket) {
			if m.outerJoin && !m.matched {
				if m.post != nil {
					copy(m.probeRow, m.cur)
					copy(m.probeRow[len(m.cur):], m.nulls)
					pass, err := m.post(m.probeRow, m.ctx)
					if err != nil {
						return nil, err
					}
					if pass {
						m.outBuf.add(m.cur, m.nulls)
					}
				} else {
					m.outBuf.add(m.cur, m.nulls)
				}
			}
			m.cur = nil
		}
	}
	if len(m.outBuf.rows) == 0 {
		return nil, nil
	}
	m.out = Batch{Rows: m.outBuf.rows}
	return &m.out, nil
}

func (m *bMergeJoin) Close() error {
	if !m.hasGen {
		m.run = nil
	}
	m.lb = nil
	return m.left.Close()
}
