package main

import (
	"fmt"
	"math/rand"

	"gapplydb"
	"gapplydb/xmlpub"
)

// op is one request: a statement text, and for XML documents the tag
// plan its rows are published under.
type op struct {
	tmpl string // template name; the mix and per-template figures use it
	key  string // digest key: tmpl, or tmpl/param for parameterized texts
	sql  string
	plan *xmlpub.TagPlan // non-nil: the result is an XML document
	flwr *xmlpub.FLWR    // non-nil: published in-process through xmlpub.Publish
	opts []gapplydb.QueryOption
}

func (o op) xml() bool { return o.plan != nil }

// template is a family of statements: one fixed text (params == 0) or
// params texts that differ in a literal.
type template struct {
	name   string
	weight int // share of the mix, in cards of the shuffled deck
	params int
	skew   bool // pick parameters Zipf-skewed instead of uniformly
	make   func(i int) op
}

func fixed(name string, weight int, o op) template {
	o.tmpl, o.key = name, name
	return template{name: name, weight: weight, make: func(int) op { return o }}
}

func param(name string, weight, params int, skew bool, mk func(i int) (string, op)) template {
	return template{name: name, weight: weight, params: params, skew: skew, make: func(i int) op {
		p, o := mk(i)
		o.tmpl, o.key = name, name+"/"+p
		return o
	}}
}

func sqlOp(sql string, opts ...gapplydb.QueryOption) op { return op{sql: sql, opts: opts} }

func xmlOp(q *xmlpub.FLWR) op {
	return op{sql: q.GApplySQL(), plan: q.TagPlan(), flwr: q}
}

// The Figure 8 statements the paper's evaluation runs, in the extended
// GApply syntax, plus the join-heavy spool statements (Q2j–Q4j).
const (
	q4GApply = `select gapply(select p_name, p_retailprice from g
	              where p_retailprice > (select avg(p_retailprice) from g))
	from partsupp, part
	where ps_partkey = p_partkey
	group by ps_suppkey, p_size : g`
	q2j = `select gapply(select p_name, p_retailprice from g, part
				where ps_partkey = p_partkey and p_retailprice > 1200)
			from partsupp group by ps_suppkey : g`
	q3j = `select gapply(select p_name, ps_availqty from g, part
				where ps_partkey = p_partkey)
			from partsupp group by ps_suppkey : g`
	q4j = `select gapply(select min(p_retailprice), count(*) from g, part
				where ps_partkey = p_partkey and p_size < 30)
			from partsupp group by ps_suppkey : g`

	// The two statements beside merge-gathered Q1–Q3 that a sharded
	// cluster distributes: an ordered scan and a partial aggregate.
	psOrdered = "select ps_partkey, ps_suppkey from partsupp order by ps_suppkey, ps_partkey"
	psCount   = "select count(*), min(ps_supplycost), max(ps_supplycost), sum(ps_availqty) from partsupp"
)

// supplierDoc is Q1's document restricted to one supplier: the same
// column layout as Q1's GApply statement, so Q1's tag plan publishes it.
const supplierDoc = `select gapply(select 0, p_name, p_retailprice, null from g
	union all select 1, null, null, avg(p_retailprice) from g)
	from partsupp, part where ps_partkey = p_partkey and ps_suppkey = %d
	group by ps_suppkey : g`

// domains are the key ranges parameterized statements draw from, read
// from the loaded data so every scale factor gets valid keys.
type domains struct {
	suppliers, parts, orders int
}

func readDomains(db *gapplydb.Database) (domains, error) {
	res, err := db.Query("select count(*) from supplier")
	if err != nil {
		return domains{}, err
	}
	var d domains
	d.suppliers = int(res.Rows[0][0].(int64))
	if res, err = db.Query("select count(*) from part"); err != nil {
		return domains{}, err
	}
	d.parts = int(res.Rows[0][0].(int64))
	if res, err = db.Query("select count(*) from orders"); err != nil {
		return domains{}, err
	}
	d.orders = int(res.Rows[0][0].(int64))
	return d, nil
}

// spread maps i in [0, n) onto n keys spaced evenly over [1, max].
func spread(i, n, max int) int {
	if n >= max {
		return i + 1
	}
	return 1 + i*(max-1)/(n-1)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// keyParams is how many distinct keys a lookup template draws from. With
// eight parameterized templates the statement texts outnumber the
// 256-entry plan cache several times, so skewed draws both hit and miss.
const keyParams = 256

// mixes are the workloads' request mixes. Refresh is built separately
// (refresh.go): its statements run against data it changes.
func publishMix() []template {
	return []template{
		fixed("Q1_gapply", 3, sqlOp(xmlpub.Q1().GApplySQL())),
		fixed("Q2_gapply", 3, sqlOp(xmlpub.Q2().GApplySQL())),
		fixed("Q3_gapply", 3, sqlOp(xmlpub.Q3(0.9, 1.1).GApplySQL())),
		fixed("Q4_gapply", 1, sqlOp(q4GApply)),
		fixed("Q2j", 3, sqlOp(q2j)),
		fixed("Q3j", 3, sqlOp(q3j)),
		fixed("Q4j", 3, sqlOp(q4j)),
		fixed("Q1_xml", 1, xmlOp(xmlpub.Q1())),
		fixed("Q3_xml", 2, xmlOp(xmlpub.Q3(0.9, 1.1))),
		fixed("ExpensiveSuppliers_xml", 3, xmlOp(xmlpub.ExpensiveSuppliers(1900))),
		fixed("RichSuppliers_xml", 3, xmlOp(xmlpub.RichSuppliers(1500))),
		fixed("Q1_sou", 1, sqlOp(xmlpub.Q1().SortedOuterUnionSQL())),
		fixed("Q2_sou", 1, sqlOp(xmlpub.Q2().SortedOuterUnionSQL())),
		fixed("Q3_sou", 1, sqlOp(xmlpub.Q3(0.9, 1.1).SortedOuterUnionSQL())),
	}
}

func serveMix(d domains) []template {
	keys := func(max int) int { return minInt(keyParams, max) }
	q1 := xmlpub.Q1().TagPlan()
	rangeWidth := 20
	return []template{
		param("lookup_supplier", 12, d.suppliers, true, func(i int) (string, op) {
			return fmt.Sprint(i + 1), sqlOp(fmt.Sprintf("select s_suppkey, s_name, s_acctbal from supplier where s_suppkey = %d", i+1))
		}),
		param("lookup_part", 12, keys(d.parts), true, func(i int) (string, op) {
			k := spread(i, keys(d.parts), d.parts)
			return fmt.Sprint(k), sqlOp(fmt.Sprintf("select p_partkey, p_name, p_retailprice from part where p_partkey = %d", k))
		}),
		param("lookup_orders", 12, keys(d.orders), true, func(i int) (string, op) {
			k := spread(i, keys(d.orders), d.orders)
			return fmt.Sprint(k), sqlOp(fmt.Sprintf("select o_orderkey, o_custkey, o_totalprice, o_orderdate from orders where o_orderkey = %d", k))
		}),
		param("lookup_lineitem", 6, keys(d.orders), true, func(i int) (string, op) {
			k := spread(i, keys(d.orders), d.orders)
			return fmt.Sprint(k), sqlOp(fmt.Sprintf("select l_orderkey, l_linenumber, l_partkey, l_quantity from lineitem where l_orderkey = %d", k))
		}),
		param("range_partsupp", 8, d.suppliers, true, func(i int) (string, op) {
			return fmt.Sprint(i + 1), sqlOp(fmt.Sprintf("select ps_suppkey, ps_partkey, ps_availqty from partsupp where ps_suppkey >= %d and ps_suppkey < %d order by ps_suppkey", i+1, i+3))
		}),
		param("range_orders", 8, keys(d.orders), true, func(i int) (string, op) {
			k := spread(i, keys(d.orders), d.orders)
			return fmt.Sprint(k), sqlOp(fmt.Sprintf("select o_orderkey, o_totalprice from orders where o_orderkey >= %d and o_orderkey < %d order by o_orderkey", k, k+rangeWidth))
		}),
		param("supplier_xml", 6, d.suppliers, true, func(i int) (string, op) {
			return fmt.Sprint(i + 1), op{sql: fmt.Sprintf(supplierDoc, i+1), plan: q1}
		}),
		fixed("lineitem_stream", 0, sqlOp("select l_orderkey, l_partkey, l_suppkey, l_quantity from lineitem")),
	}
}

// lineitemEvery is how often serve's rare 60k-row lineitem stream comes
// up: one request in this many.
const lineitemEvery = 4000

// shardedMix weights its nine statements evenly: the sorted-outer-union
// merge-gathers and the declined GApply statements, which take most of
// the time, are the workload's reason to exist.
func shardedMix() []template {
	return []template{
		fixed("Q1_sou", 1, sqlOp(xmlpub.Q1().SortedOuterUnionSQL())),
		fixed("Q2_sou", 1, sqlOp(xmlpub.Q2().SortedOuterUnionSQL())),
		fixed("Q3_sou", 1, sqlOp(xmlpub.Q3(0.9, 1.1).SortedOuterUnionSQL())),
		fixed("partsupp_ordered", 1, sqlOp(psOrdered)),
		fixed("partsupp_count", 1, sqlOp(psCount)),
		fixed("Q1_gapply", 1, sqlOp(xmlpub.Q1().GApplySQL())),
		fixed("Q2_gapply", 1, sqlOp(xmlpub.Q2().GApplySQL())),
		fixed("Q3_gapply", 1, sqlOp(xmlpub.Q3(0.9, 1.1).GApplySQL())),
		fixed("Q4_gapply", 1, sqlOp(q4GApply)),
	}
}

// allOps lists every distinct statement the digest-checked workloads can
// send, keyed by digest key.
func allOps(d domains) map[string]op {
	out := map[string]op{}
	for _, mix := range [][]template{publishMix(), serveMix(d), shardedMix()} {
		for _, t := range mix {
			n := t.params
			if n == 0 {
				n = 1
			}
			for i := 0; i < n; i++ {
				o := t.make(i)
				if prev, ok := out[o.key]; ok && prev.sql != o.sql {
					panic("perfbench: digest key " + o.key + " names two statements")
				}
				out[o.key] = o
			}
		}
	}
	return out
}

// generator draws a seeded request sequence from a mix. Templates come
// from a shuffled deck holding each template weight times, so every full
// deck has the mix's exact proportions; the seed changes the order and
// the parameters.
type generator struct {
	rng   *rand.Rand
	mix   []template
	deck  []int
	pos   int
	perm  [][]int // per template: seeded permutation of its parameters
	zipf  []*rand.Zipf
	count int
	// every, when > 0, replaces every every-th request with template
	// rare (serve's lineitem stream).
	every, rare int
}

func newGenerator(seed int64, mix []template) *generator {
	g := &generator{rng: rand.New(rand.NewSource(seed)), mix: mix, rare: -1}
	for i, t := range mix {
		for w := 0; w < t.weight; w++ {
			g.deck = append(g.deck, i)
		}
		var perm []int
		var z *rand.Zipf
		if t.params > 1 {
			perm = g.rng.Perm(t.params)
			if t.skew {
				z = rand.NewZipf(g.rng, 1.1, 4, uint64(t.params-1))
			}
		}
		g.perm = append(g.perm, perm)
		g.zipf = append(g.zipf, z)
	}
	g.pos = len(g.deck)
	return g
}

func (g *generator) next() op {
	g.count++
	ti := -1
	if g.every > 0 && g.count%g.every == 0 {
		ti = g.rare
	} else {
		if g.pos == len(g.deck) {
			g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
			g.pos = 0
		}
		ti = g.deck[g.pos]
		g.pos++
	}
	t := g.mix[ti]
	i := 0
	switch {
	case g.zipf[ti] != nil:
		i = g.perm[ti][g.zipf[ti].Uint64()]
	case t.params > 1:
		i = g.perm[ti][g.rng.Intn(t.params)]
	}
	return t.make(i)
}

// templateIndex finds a template of mix by name.
func templateIndex(mix []template, name string) int {
	for i, t := range mix {
		if t.name == name {
			return i
		}
	}
	panic("perfbench: no template " + name)
}
