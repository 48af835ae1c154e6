package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// testSF is a scale factor small enough that every workload sets up in
// well under a second.
const testSF = 0.002

// digestDir holds digests recorded at testSF for this test binary.
var digestDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-digests")
	if err != nil {
		panic(err)
	}
	if _, err := regenDigests(dir, testSF); err != nil {
		panic(err)
	}
	digestDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

type benchSpec struct {
	EndToEnd []struct{ Name string } `json:"end_to_end"`
	PerLayer []struct{ Name string } `json:"per_layer"`
	Work     []struct{ Name string } `json:"workloads"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func names(xs []struct{ Name string }) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = x.Name
	}
	sort.Strings(out)
	return out
}

func metricNames(r *result) []string {
	var out []string
	for k := range r.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func tinyRun(t *testing.T, workload, digests string, seed int64, traced bool) *result {
	t.Helper()
	res, err := run(context.Background(), config{
		workload: workload, seed: seed, seconds: 2, trace: traced, sf: testSF,
		digestDir: digests, maxReq: 40, setups: 1,
		spanOut: filepath.Join(t.TempDir(), "spans.json"),
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// Every workload runs a few requests at a tiny scale factor, every
// response verifies, and the printed metric names are exactly those
// BENCHMARK.json declares — end-to-end untraced, per-layer traced.
func TestWorkloadsVerifyAndNameTheirMetrics(t *testing.T) {
	spec := loadSpec(t)
	var declared []string
	for _, w := range workloads {
		if w.name != "serve" { // runnable, but not steady enough to gate on: see README.md
			declared = append(declared, w.name)
		}
	}
	sort.Strings(declared)
	if got := names(spec.Work); !reflect.DeepEqual(got, declared) {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", got, declared)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, w.name, digestDir, 1, traced)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := names(spec.EndToEnd)
			if traced {
				want = names(spec.PerLayer)
			}
			if got := metricNames(res); !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metrics %v, BENCHMARK.json %v", w.name, traced, got, want)
			}
		}
	}
}

// A different seed draws a different request sequence from the same mix,
// and reports the same metrics.
func TestSeedChangesMixNotMetrics(t *testing.T) {
	dom := domains{suppliers: 20, parts: 400, orders: 3000}
	for _, mix := range [][]template{publishMix(), serveMix(dom), shardedMix(), refreshMix()} {
		a, b := newGenerator(1, mix), newGenerator(2, mix)
		same := true
		for i := 0; i < 64; i++ {
			if a.next().key != b.next().key {
				same = false
			}
		}
		if same {
			t.Errorf("mix starting %s: seeds 1 and 2 drew the same 64 requests", mix[0].name)
		}
	}
	r1 := tinyRun(t, "serve", digestDir, 1, false)
	r2 := tinyRun(t, "serve", digestDir, 2, false)
	if !reflect.DeepEqual(metricNames(r1), metricNames(r2)) {
		t.Errorf("seed 1 metrics %v, seed 2 metrics %v", metricNames(r1), metricNames(r2))
	}
}

// A corrupted digest must be reported as a failure: the check can fail.
func TestCorruptedDigestFails(t *testing.T) {
	want, err := loadDigests(digestDir, testSF)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"Q2_gapply", "partsupp_count"} {
		want[key] = "0000000000000000"
	}
	dir := t.TempDir()
	b, _ := json.Marshal(want)
	if err := os.WriteFile(digestFile(dir, testSF), b, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"publish", "sharded"} {
		res := tinyRun(t, w, dir, 1, false)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted digest not reported: correct=%v failed=%d", w, res.Correct, res.Failed)
		}
	}
}

// Refresh checks each response after the window against the same
// statement run without indexes on a database replaying its inserts; a
// wrong response must fail that check.
func TestRefreshReplayCheckFails(t *testing.T) {
	e, err := setupLocal(testSF)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	ref, err := setupLocal(testSF)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	f := newRefresher(e, 1)
	w := newWindow(false)
	r := &response{}
	for i := 0; i < 3; i++ {
		f.iteration(context.Background(), w, r)
	}
	if w.failed != 0 || len(f.log) != 9 {
		t.Fatalf("window: %d failed, %d responses logged", w.failed, len(f.log))
	}
	f.log[7].digest = "0000000000000000"
	if err := f.verify(ref.db, w); err != nil {
		t.Fatal(err)
	}
	if w.failed != 1 || w.attempted != 12 || len(w.samples) != 11 {
		t.Fatalf("one wrong response: %d failed of %d attempted, %d samples left", w.failed, w.attempted, len(w.samples))
	}
}
