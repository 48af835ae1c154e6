package gapplydb_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"gapplydb"
	"gapplydb/experiments"
	"gapplydb/replay"
	"gapplydb/xmlpub"
)

// The engine differential pins the execution engine to its oracle: the
// reference interpreter (exec.Reference, reached through the test-only
// gapplydb.ReferenceQuery hook) and the engine must produce
// byte-identical ordered output for the whole evaluation workload and
// the whole replay corpus, at serial and parallel degrees. The
// interpreter is a few hundred lines that spell out each operator's
// definition — nested-loop joins, first-seen grouping, sorts that are
// never elided — so any engine bug that changes results, order or NULL
// handling shows up here. The interpreter does not depend on the degree
// of parallelism, so it runs once per statement; the engine's group and
// spool accounting is checked for dop invariance instead.

func TestEngineDifferentialSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("differential battery skipped in -short mode")
	}
	db := integDatabase(t)
	for _, sq := range experiments.SuiteQueries() {
		sq := sq
		t.Run(sq.Name, func(t *testing.T) {
			ref, err := gapplydb.ReferenceQuery(db, sq.SQL)
			if err != nil {
				t.Fatalf("reference: %v\n%s", err, sq.SQL)
			}
			want := ordered(ref)
			// Work accounting that must not depend on the degree of
			// parallelism. (Counters fed by speculative batch pulls —
			// RowsScanned under EXISTS, join probes inside a short-circuited
			// subtree — and the serial/parallel split are not compared.)
			type work struct{ groups, inner, builds, hits int64 }
			var serial work
			for _, dop := range []int{1, 2, 8} {
				res, err := db.Query(sq.SQL, gapplydb.WithDOP(dop))
				if err != nil {
					t.Fatalf("engine dop %d: %v\n%s", dop, err, sq.SQL)
				}
				if d := firstDiff(want, ordered(res)); d != "" {
					t.Fatalf("dop %d: engine diverged from reference: %s", dop, d)
				}
				w := work{res.Stats.Groups, res.Stats.InnerExecs, res.Stats.SpoolBuilds, res.Stats.SpoolHits}
				if dop == 1 {
					serial = w
				} else if w != serial {
					t.Fatalf("dop %d: work counters differ from dop 1:\ndop 1: %+v\ndop %d: %+v", dop, serial, dop, w)
				}
			}
		})
	}
}

// referenceOutcome renders a corpus query's reference result the way
// replay.RunLocalOpts renders the engine's: the published document for
// XML queries, RenderRows otherwise. Only the corpus's partition choice
// shapes the plan; its degree, timeout and budget are execution
// settings the interpreter does not have.
func referenceOutcome(db *gapplydb.Database, q *replay.Query) ([]byte, error) {
	var opts []gapplydb.QueryOption
	if q.Partition != "" {
		opts = append(opts, gapplydb.WithPartition(q.Partition))
	}
	res, err := gapplydb.ReferenceQuery(db, q.SQL, opts...)
	if err != nil {
		return nil, err
	}
	if q.Kind == replay.KindXML {
		var doc bytes.Buffer
		if err := xmlpub.TagAll(q.TagPlan, res.Rows, &doc); err != nil {
			return nil, err
		}
		return doc.Bytes(), nil
	}
	return replay.RenderRows(res.Columns, res.Rows), nil
}

func TestEngineDifferentialCorpus(t *testing.T) {
	c, err := replay.Load("testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	db := integDatabase(t)
	ctx := context.Background()

	for _, q := range c.Queries {
		q := q
		if q.CancelAfterRows > 0 {
			continue // wire-level cancel has no embedded execution
		}
		var ref []byte
		if q.Expect.Error == "" {
			if ref, err = referenceOutcome(db, q); err != nil {
				t.Fatalf("%s: reference: %v", q.Name, err)
			}
		}
		for _, dop := range []int{1, 2, 8} {
			dop := dop
			if q.DOP > 0 && dop != 1 {
				continue // degree-pinned queries run once
			}
			t.Run(fmt.Sprintf("%s/dop%d", q.Name, dop), func(t *testing.T) {
				got, err := replay.RunLocalOpts(ctx, db, q, dop)
				if err != nil {
					t.Fatal(err)
				}
				if q.Expect.Error != "" {
					if got.Code != q.Expect.Error {
						t.Fatalf("code = %q (%v), want %q", got.Code, got.Err, q.Expect.Error)
					}
					return
				}
				if got.Code != "" {
					t.Fatalf("engine failed: %s: %v", got.Code, got.Err)
				}
				if err := replay.DiffRendered(got.Rendered, ref); err != nil {
					t.Fatalf("engine vs reference: %v", err)
				}
				if q.Expect.Golden {
					want, err := c.Golden(q)
					if err != nil {
						t.Fatal(err)
					}
					if err := replay.DiffRendered(ref, want); err != nil {
						t.Fatalf("reference vs golden: %v", err)
					}
				}
			})
		}
	}
}
