package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"gapplydb"
	"gapplydb/internal/trace"
	"gapplydb/xmlpub"
)

// The refresh workload puts writes beside reads: each iteration inserts
// one part with its suppliers, then runs index-served publishing
// statements over the grown tables. It runs a fixed number of
// iterations, so a faster build does not grow the tables more.
const (
	refreshItersPerSecond = 20 // iterations per second of --seconds
	refreshStatsEvery     = 25 // RefreshStats every this many iterations
	suppliersPerPart      = 4
)

// refreshMix are the statements an iteration draws after its first,
// which is always an index-served range read of partsupp so the first
// statement after every insert pays the sorted-run rebuild.
func refreshMix() []template {
	return []template{
		fixed("part_lookup", 2, op{}), // text built per iteration: a recently inserted key
		fixed("sorted_gapply", 5, sqlOp("select gapply(select count(*), sum(ps_availqty) from g) from partsupp group by ps_suppkey : g",
			gapplydb.WithPartition("sort"))),
		fixed("Q1_xml", 1, xmlOp(xmlpub.Q1())),
	}
}

func rangeOp(lo int) op {
	o := sqlOp(fmt.Sprintf("select ps_suppkey, ps_partkey, ps_availqty from partsupp where ps_suppkey >= %d and ps_suppkey < %d order by ps_suppkey", lo, lo+2))
	o.tmpl, o.key = "orderby_range", "orderby_range"
	return o
}

func partLookup(k int) op {
	o := sqlOp(fmt.Sprintf("select p_partkey, p_name, p_retailprice from part where p_partkey = %d order by p_partkey", k))
	o.tmpl, o.key = "part_lookup", "part_lookup"
	return o
}

type refresher struct {
	db       *gapplydb.Database
	t        target
	rng      *rand.Rand
	gen      *generator
	dom      domains
	nextPart int
	iter     int
	d        *digester
	inserts  [][]insertion // per iteration, what it inserted
	log      []logged      // every statement response, for verify
}

// insertion is one Database.Insert call, kept so verify can replay it.
type insertion struct {
	table string
	rows  [][]any
}

// logged is one statement of the window: what ran, after which
// iteration's inserts, and the digest of its response.
type logged struct {
	iter   int
	seq    int
	o      op
	digest string
}

func newRefresher(e *env, seed int64) *refresher {
	return &refresher{
		db: e.db, t: e.targets[0], rng: rand.New(rand.NewSource(seed)),
		gen: newGenerator(seed, refreshMix()), dom: e.dom,
		nextPart: e.dom.parts + 1, d: newDigester(),
	}
}

// insert appends one part and its suppliers, drawn from the seed.
func (f *refresher) insert() (int64, error) {
	k := f.nextPart
	f.nextPart++
	part := []any{int64(k), fmt.Sprintf("refresh part %d", f.rng.Intn(1000)),
		fmt.Sprintf("Brand#%d%d", 1+f.rng.Intn(5), 1+f.rng.Intn(5)),
		int64(1 + f.rng.Intn(50)), float64(90000+f.rng.Intn(120000)) / 100}
	base := f.rng.Intn(f.dom.suppliers)
	rows := make([][]any, suppliersPerPart)
	for i := range rows {
		supp := (base+i)%f.dom.suppliers + 1
		rows[i] = []any{int64(k), int64(supp), int64(1 + f.rng.Intn(9999)), float64(100+f.rng.Intn(99900)) / 100}
	}
	ins := []insertion{{"part", [][]any{part}}, {"partsupp", rows}}
	f.inserts = append(f.inserts, ins)
	for _, x := range ins {
		if err := f.db.Insert(x.table, x.rows...); err != nil {
			return 0, err
		}
	}
	return 1 + suppliersPerPart, nil
}

// record keeps a response's digest for verify; digesting is the same
// work every workload's check does inside the window.
func (f *refresher) record(seq int) func(op, *response) error {
	return func(o op, r *response) error {
		f.log = append(f.log, logged{iter: f.iter, seq: seq, o: o, digest: r.digest(f.d)})
		return nil
	}
}

// verify checks every logged response against the same statement run
// without indexes at dop 1 on ref, a freshly loaded database that
// replays the window's inserts (and statistics refreshes) up to the
// statement's iteration. Refresh changes the tables, so its references
// cannot be recorded ahead of time; computing them after the window
// keeps their cost out of the window's time, allocation and GC figures.
// A mismatch is a failed request of w.
func (f *refresher) verify(ref *gapplydb.Database, w *window) error {
	d := newDigester()
	next := 0
	for i, ins := range f.inserts {
		for _, x := range ins {
			if err := ref.Insert(x.table, x.rows...); err != nil {
				return fmt.Errorf("replaying iteration %d: %w", i+1, err)
			}
		}
		for ; next < len(f.log) && f.log[next].iter == i+1; next++ {
			l := f.log[next]
			want, err := localDigest(ref, l.o, d, gapplydb.WithoutIndexes(), gapplydb.WithDOP(1))
			if err != nil {
				err = fmt.Errorf("%s: reference run: %w", l.o.key, err)
			} else if l.digest != want {
				err = fmt.Errorf("%s: digest %s, no-index reference %s", l.o.key, l.digest, want)
			}
			if err != nil {
				w.reject(l.seq, err)
			}
		}
		if (i+1)%refreshStatsEvery == 0 {
			ref.RefreshStats()
		}
	}
	return nil
}

// iteration runs one insert and its statements; only the insert and the
// statements themselves count toward the window's wall time.
func (f *refresher) iteration(ctx context.Context, w *window, r *response) {
	f.iter++
	t0 := time.Now()
	n, err := f.insert()
	lat := time.Since(t0)
	w.wall += lat
	w.add(sample{tmpl: "insert", seq: w.attempted, lat: lat, local: true}, err)
	if err == nil {
		w.mu.Lock()
		w.insertTime += lat
		w.insertRows += n
		w.mu.Unlock()
	}
	ops := []op{rangeOp(1 + f.rng.Intn(f.dom.suppliers-1))}
	for i := 0; i < 2; i++ {
		o := f.gen.next()
		if o.tmpl == "part_lookup" {
			o = partLookup(f.nextPart - 1 - f.rng.Intn(minInt(f.iter, 8)))
		}
		ops = append(ops, o)
	}
	for i, o := range ops {
		seq := w.attempted
		s, err := runRequest(ctx, f.t, o, seq, w, f.record(seq), r, time.Now())
		w.wall += s.lat
		if i == 0 && err == nil && w.traced {
			f.noteRebuild(ctx, o, s.trace, w)
		}
	}
	if f.iter%refreshStatsEvery == 0 {
		t2 := time.Now()
		f.db.RefreshStats()
		w.wall += time.Since(t2)
	}
}

// noteRebuild reruns the first statement after an insert, warm, and
// records how much longer its index scan took the first time: the cost
// of rebuilding the sorted run over the grown table.
func (f *refresher) noteRebuild(ctx context.Context, o op, first *trace.Trace, w *window) {
	var s sample
	if first == nil || f.t.do(ctx, o, true, &s, &response{}) != nil {
		return
	}
	warm := f.t.traceOf(s.id)
	if warm == nil {
		return
	}
	cold, hot := opSelf(first)["indexscan"], opSelf(warm)["indexscan"]
	w.mu.Lock()
	w.rebuildMS = append(w.rebuildMS, ms(cold-hot))
	w.mu.Unlock()
}
