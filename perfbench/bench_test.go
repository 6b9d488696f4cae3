package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's child process,
// as the benchmark binary does.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// shortOptions is a short-budget run of w: one campaign of a few
// thousand iterations.
func shortOptions(t *testing.T, w workload, trace bool) options {
	iters := 3000
	if w.service {
		iters = 8000
	}
	return options{
		workload: w.name, seed: 7, seconds: 1, trace: trace,
		buildDir: t.TempDir(), refPath: "reference.json", iters: iters, campaigns: 1,
	}
}

func readBenchmark(t *testing.T) (e2e, layers []metricDef) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	return e2e, layers
}

// TestEveryMetricPrintedWithUnit runs every workload untraced and traced
// on a short budget and checks that each run prints exactly the metrics
// BENCHMARK.json names, with their units, and passes its checks.
func TestEveryMetricPrintedWithUnit(t *testing.T) {
	e2e, layers := readBenchmark(t)
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range layers {
		if _, ok := ref.MetricMap[m.name]; !ok {
			t.Errorf("per-layer metric %s has no entry in the metric map", m.name)
		}
	}
	for _, w := range workloads {
		if _, ok := ref.Workloads[w.name]; !ok {
			t.Errorf("workload %s has no rationale in reference.json", w.name)
		}
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layers
			}
			res, rep, err := run(shortOptions(t, w, trace), w)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d problems=%v", w.name, trace, res.Correct, res.Failed, rep.problems)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v, want unit %q", w.name, trace, m.name, got, m.unit)
				}
			}
		}
	}
}

// TestDoctoredFingerprintFails checks that a recorded fingerprint the run
// does not reproduce fails the run, and so does a doctored entry in the
// checkout's run store.
func TestDoctoredFingerprintFails(t *testing.T) {
	w, _ := findWorkload("classic-uncached")
	o := shortOptions(t, w, false)
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	key := fingerprintKey(o.seed, o.iters)
	ref.Fingerprints.add(w.name, key, fingerprint{Iterations: o.iters, Accepted: -1})
	data, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	o.refPath = filepath.Join(t.TempDir(), "reference.json")
	if err := os.WriteFile(o.refPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	res, _, err := run(o, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("doctored recorded fingerprint: correct=%v failed=%d, want a failed run", res.Correct, res.Failed)
	}

	o = shortOptions(t, w, false)
	store := &runStore{path: filepath.Join(o.buildDir, "fingerprints.json"), book: fingerprintBook{}}
	store.book.add(w.name, key, fingerprint{Iterations: o.iters, Sites: -1})
	if err := store.save(); err != nil {
		t.Fatal(err)
	}
	if res, _, err = run(o, w); err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("doctored run-store fingerprint: the run passed")
	}
}

// TestReplayedVerdictsMatchCacheInserts re-verifies, with the cache off,
// the programs whose verdicts the sibling-cached Cache wrapper saw
// inserted, and requires the same accept/reject outcome.
func TestReplayedVerdictsMatchCacheInserts(t *testing.T) {
	w, _ := findWorkload("sibling-cached")
	smp := newSampler(7, replaySize)
	ct := &campaignTrace{t: newTracer(1 << 16), smp: smp}
	if _, err := runCampaign(w, w.campaignConfig(7), 5000, 0, ct.hooks(true)); err != nil {
		t.Fatal(err)
	}
	if len(smp.verdicts) == 0 {
		t.Fatal("the cache wrapper saw no insert")
	}
	k, _, err := replayKernel()
	if err != nil {
		t.Fatal(err)
	}
	rs := replayLayers(k, smp.progs, smp.verdicts, false)
	if rs.verdictsChecked != len(smp.verdicts) || rs.verdictMismatches != 0 {
		t.Fatalf("replayed %d sampled inserts, %d verdicts differ", rs.verdictsChecked, rs.verdictMismatches)
	}
	rejected := 0
	for _, v := range smp.verdicts {
		if v.rejected {
			rejected++
		}
	}
	if rejected == 0 || rejected == len(smp.verdicts) {
		t.Errorf("sample holds %d rejections of %d verdicts; want both outcomes", rejected, len(smp.verdicts))
	}
}

// TestServiceWrapperCountsAddUp checks the service wrappers against the
// units the coordinator leased: one runner call per lease, one accepted
// result per unit, and unit progress summing to the committed iterations.
func TestServiceWrapperCountsAddUp(t *testing.T) {
	tr := newTracer(4096)
	r, err := runService(7, 8000, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(r.units), serviceUnits+r.refunds; got != want {
		t.Errorf("runner calls %d, want units %d + refunds %d", got, serviceUnits, r.refunds)
	}
	if got := r.calls["result"]; got != serviceUnits {
		t.Errorf("result calls %d, want %d", got, serviceUnits)
	}
	if r.calls["lease"] < serviceUnits {
		t.Errorf("lease calls %d, fewer than %d units", r.calls["lease"], serviceUnits)
	}
	done := 0
	for _, u := range r.units {
		if n := len(u.stamps); n > 0 {
			done += u.stamps[n-1].done
		}
	}
	if done != r.merged.Iterations || done != 8000 {
		t.Errorf("unit progress sums to %d, coordinator committed %d, spec 8000", done, r.merged.Iterations)
	}
	an := tr.analyze()
	if got := an.summary("orchestrator.unit").Count; got != len(r.units) {
		t.Errorf("%d orchestrator.unit spans for %d runner calls", got, len(r.units))
	}
	if got := an.summary("orchestrator.result").Count; got != r.calls["result"] {
		t.Errorf("%d orchestrator.result spans for %d result calls", got, r.calls["result"])
	}
}

// TestSiblingCachedAnchor is the sanity anchor: the BENCH_6 campaign
// (sibling-cached, seed 7, 100k iterations).
func TestSiblingCachedAnchor(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-iteration campaign")
	}
	w, _ := findWorkload("sibling-cached")
	m, err := spawnMember(w, 7, 100_000, 100_000/referenceShare)
	if err != nil {
		t.Fatal(err)
	}
	fp := m.Fingerprint
	if fp.Accepted != 38381 || fp.Sites != 270 || len(fp.Bugs) != 12 {
		t.Fatalf("anchor: accepted %d, sites %d, bugs %d; want 38381, 270, 12", fp.Accepted, fp.Sites, len(fp.Bugs))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(vals ...float64) []runRecord {
		var rs []runRecord
		for i, v := range vals {
			rs = append(rs, runRecord{workload: "w", seed: int64(i), res: result{
				Correct: true, Attempted: 100,
				Metrics: map[string]metricValue{"iters_per_sec": {Value: v, Unit: "iter/s"}},
			}})
		}
		return rs
	}
	var bs benchSpec
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"iters_per_sec","unit":"iter/s","better":"higher","bound":0.1}]}`), &bs); err != nil {
		t.Fatal(err)
	}
	steady := mk(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, c := range []struct {
		change []runRecord
		want   string
	}{
		{mk(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), "improved"},
		{mk(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), "worse"},
		{mk(99, 100, 98, 99, 101, 97, 99, 100, 98, 99), "no worse"},
	} {
		rows := compareRuns(bs, steady, c.change)
		if len(rows) != 2 || rows[0].verdict != c.want || rows[1].verdict != "no worse" {
			t.Errorf("verdicts %+v, want %s then failed_frac no worse", rows, c.want)
		}
	}
	failing := mk(99, 100, 98, 99, 101, 97, 99, 100, 98, 99)
	failing[3].res.Failed = 1
	if rows := compareRuns(bs, steady, failing); rows[1].verdict != "worse" {
		t.Errorf("failures where there were none: failed_frac verdict %s, want worse", rows[1].verdict)
	}
	noisy := mk(60, 140, 80, 120, 100, 70, 130, 90, 110, 100)
	if rows := compareRuns(bs, noisy, mk(95, 105, 100, 98, 102, 97, 103, 99, 101, 100)); rows[0].verdict != "unresolved" {
		t.Errorf("noisy parent: verdict %s, want unresolved", rows[0].verdict)
	}
}
