package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"gapplydb"
	"gapplydb/xmlpub"
)

// digester hashes a response: rows in a canonical text form, or XML
// document bytes. It reuses one buffer so checking every response adds
// little allocation to the measured window.
type digester struct {
	h   hash.Hash
	buf []byte
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) reset() { d.h.Reset() }

// Write takes XML document bytes.
func (d *digester) Write(p []byte) (int, error) { return d.h.Write(p) }

func (d *digester) row(r []any) {
	b := d.buf[:0]
	for i, v := range r {
		if i > 0 {
			b = append(b, '|')
		}
		switch x := v.(type) {
		case nil:
			b = append(b, `\N`...)
		case int64:
			b = strconv.AppendInt(b, x, 10)
		case float64:
			if x == 0 {
				x = 0 // -0 and 0 render alike
			}
			if math.IsNaN(x) {
				b = append(b, "NaN"...)
			} else {
				b = strconv.AppendFloat(b, x, 'g', -1, 64)
				b = append(b, 'f')
			}
		case string:
			b = strconv.AppendQuote(b, x)
		case bool:
			b = strconv.AppendBool(b, x)
		default:
			b = fmt.Appendf(b, "%T:%v", v, v)
		}
	}
	b = append(b, '\n')
	d.buf = b
	d.h.Write(b)
}

func (d *digester) sum() string {
	var s [sha256.Size]byte
	return hex.EncodeToString(d.h.Sum(s[:0])[:8])
}

// digestFile names the checked-in digests for a scale factor.
func digestFile(dir string, sf float64) string {
	return filepath.Join(dir, "sf"+strconv.FormatFloat(sf, 'f', -1, 64)+".json")
}

func loadDigests(dir string, sf float64) (map[string]string, error) {
	b, err := os.ReadFile(digestFile(dir, sf))
	if err != nil {
		return nil, fmt.Errorf("reading digests (regenerate with --regen): %w", err)
	}
	var m map[string]string
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", digestFile(dir, sf), err)
	}
	return m, nil
}

// localDigest runs one statement in-process and digests its response.
func localDigest(db *gapplydb.Database, o op, d *digester, opts ...gapplydb.QueryOption) (string, error) {
	d.reset()
	res, err := db.Query(o.sql, append(append([]gapplydb.QueryOption(nil), o.opts...), opts...)...)
	if err != nil {
		return "", err
	}
	if o.xml() {
		err = xmlpub.TagAll(o.plan, res.Rows, d)
	} else {
		for _, r := range res.Rows {
			d.row(r)
		}
	}
	return d.sum(), err
}

// regenDigests records the digest of every statement the digest-checked
// workloads can send, at scale factor sf, into dir. The reference is the
// simplest configuration — no indexes, dop 1 — and each digest is
// verified against the default configuration before it is written.
func regenDigests(dir string, sf float64) (int, error) {
	db, err := gapplydb.OpenTPCH(sf)
	if err != nil {
		return 0, err
	}
	defer db.Close()
	dom, err := readDomains(db)
	if err != nil {
		return 0, err
	}
	ops := allOps(dom)
	keys := make([]string, 0, len(ops))
	for k := range ops {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(map[string]string, len(keys))
	d := newDigester()
	for _, k := range keys {
		ref, err := localDigest(db, ops[k], d, gapplydb.WithoutIndexes(), gapplydb.WithDOP(1))
		if err != nil {
			return 0, fmt.Errorf("%s: reference run: %w", k, err)
		}
		def, err := localDigest(db, ops[k], d)
		if err != nil {
			return 0, fmt.Errorf("%s: default run: %w", k, err)
		}
		if def != ref {
			return 0, fmt.Errorf("%s: default configuration digest %s differs from the no-index dop-1 reference %s", k, def, ref)
		}
		out[k] = ref
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	return len(out), os.WriteFile(digestFile(dir, sf), append(b, '\n'), 0o644)
}
