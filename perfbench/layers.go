package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime/metrics"
	"time"

	"repro/internal/core"
)

// perLayer are the metrics of a traced run. Their tags (layer, the
// end-to-end metrics they should move, the workload where the layer does
// most of the work and the ones that bypass it) are in reference.json.
var perLayer = []metricDef{
	{"core.generate.ns_per_call", "ns"},
	{"core.fresh_frac", "ratio"},
	{"core.gen_stage.frac", "ratio"},
	{"core.iter_p99_us", "us"},
	{"isa.validate.ns_per_call", "ns"},
	{"verifier.verify.ns_per_call", "ns"},
	{"verifier.verify.allocs_per_call", "count"},
	{"verifier.insns_per_verify", "count"},
	{"verifier.states_per_verify", "count"},
	{"verifier.peak_worklist", "count"},
	{"verifier.accept_ratio", "ratio"},
	{"verifier.verify_stage.frac", "ratio"},
	{"coverage.ns_per_verify", "ns"},
	{"coverage.sites", "count"},
	{"vcache.hit_rate", "ratio"},
	{"vcache.prefix_hit_rate", "ratio"},
	{"vcache.lookup.ns_per_call", "ns"},
	{"vcache.insert.ns_per_call", "ns"},
	{"vcache.prefix.ns_per_call", "ns"},
	{"vcache.inserted_bytes", "bytes"},
	{"vcache.cache_stage.frac", "ratio"},
	{"sanitizer.instrument.ns_per_call", "ns"},
	{"sanitizer.footprint", "ratio"},
	{"kernel.run.ns_per_call", "ns"},
	{"runtime.steps_per_run", "count"},
	{"runtime.ns_per_step", "ns"},
	{"kernel.exec_stage.frac", "ratio"},
	{"oracle.run.ns_per_call", "ns"},
	{"oracle.checks_per_run", "count"},
	{"verifier.record_states.ns_per_call", "ns"},
	{"oracle.oracle_stage.frac", "ratio"},
	{"triage.triage_stage.frac", "ratio"},
	{"triage.anomalies", "count"},
	{"orchestrator.lease.rtt_ms", "ms"},
	{"orchestrator.lease.samples", "count"},
	{"orchestrator.result.rtt_ms", "ms"},
	{"orchestrator.result.samples", "count"},
	{"orchestrator.heartbeat.calls", "count"},
	{"orchestrator.worker_idle_frac", "ratio"},
	{"orchestrator.refunds", "count"},
	{"go.allocs_per_iter", "count"},
	{"go.bytes_per_iter", "bytes"},
	{"go.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
	{"time_to_bugs_s", "s"},
	{"failed_frac", "ratio"},
}

// goRuntime samples the Go runtime's allocation and GC CPU counters.
type goRuntime struct {
	allocs, bytes   float64
	gcCPU, totalCPU float64
}

var goRuntimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGoRuntime() goRuntime {
	s := make([]metrics.Sample, len(goRuntimeNames))
	for i, n := range goRuntimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goRuntime{allocs: v(0), bytes: v(1), gcCPU: v(2), totalCPU: v(3)}
}

func (g goRuntime) sub(o goRuntime) goRuntime {
	return goRuntime{g.allocs - o.allocs, g.bytes - o.bytes, g.gcCPU - o.gcCPU, g.totalCPU - o.totalCPU}
}

func (g goRuntime) add(o goRuntime) goRuntime {
	return goRuntime{g.allocs + o.allocs, g.bytes + o.bytes, g.gcCPU + o.gcCPU, g.totalCPU + o.totalCPU}
}

// statsMetrics fills the per-layer metrics the program's own statistics
// give: fresh-generation share, stage shares of the self-reported stage
// time, acceptance, coverage, cache effectiveness and anomaly counts.
func statsMetrics(m map[string]float64, sts []*core.Stats) {
	var iters, siblings, accepted, hits, misses, phits, pmisses float64
	var sites, inserted, anomalies []float64
	stage := map[string]float64{}
	var stageTotal float64
	peak := 0
	for _, st := range sts {
		iters += float64(st.Iterations)
		siblings += float64(st.MutateSiblings)
		accepted += float64(st.Accepted)
		hits += float64(st.CacheHits)
		misses += float64(st.CacheMisses)
		phits += float64(st.CachePrefixHits)
		pmisses += float64(st.CachePrefixMisses)
		sites = append(sites, float64(st.Coverage.Count()))
		inserted = append(inserted, float64(st.CacheInsertedBytes))
		n := len(st.Bugs)
		for _, c := range st.OtherAnomalies {
			n += c
		}
		anomalies = append(anomalies, float64(n))
		for s, ns := range st.StageNanos {
			stage[s] += float64(ns)
			stageTotal += float64(ns)
		}
		peak = max(peak, st.PeakWorklist)
	}
	m["core.fresh_frac"] = ratio(iters-siblings, iters)
	m["verifier.accept_ratio"] = ratio(accepted, iters)
	m["verifier.peak_worklist"] = float64(peak)
	m["coverage.sites"] = median(sites)
	m["vcache.hit_rate"] = ratio(hits, hits+misses)
	m["vcache.prefix_hit_rate"] = ratio(phits, phits+pmisses)
	m["vcache.inserted_bytes"] = median(inserted)
	m["triage.anomalies"] = median(anomalies)
	for _, s := range []struct{ metric, stage string }{
		{"core.gen_stage.frac", "gen"},
		{"verifier.verify_stage.frac", "verify"},
		{"vcache.cache_stage.frac", "cache"},
		{"kernel.exec_stage.frac", "exec"},
		{"oracle.oracle_stage.frac", "oracle"},
		{"triage.triage_stage.frac", "triage"},
	} {
		m[s.metric] = ratio(stage[s.stage], stageTotal)
	}
}

// replayMetrics fills the per-layer metrics the layer replay gives.
// Cache timings come from the replay only where no campaign seam timed
// them (cacheFromReplay).
func replayMetrics(m map[string]float64, st replayStats, cacheFromReplay bool) {
	m["isa.validate.ns_per_call"] = st.validateNS
	m["verifier.verify.ns_per_call"] = st.verifyNS
	m["verifier.verify.allocs_per_call"] = st.allocsPerVerify
	m["verifier.insns_per_verify"] = st.insnsPerVerify
	m["verifier.states_per_verify"] = st.statesPerVerify
	m["coverage.ns_per_verify"] = st.verifyNS - st.verifyNoCovNS
	m["verifier.record_states.ns_per_call"] = st.recordStatesNS
	m["sanitizer.instrument.ns_per_call"] = st.instrumentNS
	m["sanitizer.footprint"] = st.footprint
	m["kernel.run.ns_per_call"] = st.runNS
	m["runtime.steps_per_run"] = st.stepsPerRun
	m["runtime.ns_per_step"] = ratio(st.runNS, st.stepsPerRun)
	m["oracle.run.ns_per_call"] = st.oracleNS
	m["oracle.checks_per_run"] = st.checksPerRun
	if cacheFromReplay {
		m["vcache.lookup.ns_per_call"] = st.lookupNS
		m["vcache.insert.ns_per_call"] = st.insertNS
		m["vcache.prefix.ns_per_call"] = st.prefixNS
	}
}

func goRuntimeMetrics(m map[string]float64, g goRuntime, iters int) {
	m["go.allocs_per_iter"] = ratio(g.allocs, float64(iters))
	m["go.bytes_per_iter"] = ratio(g.bytes, float64(iters))
	m["go.gc_cpu_frac"] = ratio(g.gcCPU, g.totalCPU)
}

// orchestratorMetrics fills the control-plane metrics from service runs
// (traced, for the round-trip spans) and their untraced twins (for idle
// time, heartbeats and refunds).
func orchestratorMetrics(m map[string]float64, leases, results []float64, runs []*serviceRun) {
	m["orchestrator.lease.rtt_ms"] = median(leases)
	m["orchestrator.lease.samples"] = float64(len(leases))
	m["orchestrator.result.rtt_ms"] = median(results)
	m["orchestrator.result.samples"] = float64(len(results))
	var hb, refunds []float64
	var busy, capacity time.Duration
	for _, r := range runs {
		hb = append(hb, float64(r.calls["heartbeat"]))
		refunds = append(refunds, float64(r.refunds))
		busy += r.busy()
		capacity += time.Duration(serviceWorkers) * r.wall
	}
	m["orchestrator.heartbeat.calls"] = median(hb)
	m["orchestrator.refunds"] = sum(refunds)
	m["orchestrator.worker_idle_frac"] = math.Max(0, 1-ratio(float64(busy), float64(capacity)))
}

// traceCampaigns is the traced run of a campaign workload. It measures
// the tracedPanel campaigns twice each — untraced, then
// traced on the same seed, whose fingerprints must agree — then replays
// a fixed-size sample of the programs the traced campaigns saw at their
// seams through each layer's public entry point, and runs a small
// in-process control plane to time the orchestrator layer the campaign
// workloads bypass.
func traceCampaigns(o options, w workload, ck *checker, rep *report) error {
	seeds := tracedPanel(w, o)
	iters := w.iters
	if o.iters > 0 {
		iters = o.iters
	}
	smp := newSampler(o.seed, replaySize)
	var plain, traced []*campaignRun
	var sts []*core.Stats
	var rt goRuntime
	var gaps, ttb, generate, lookup, insert, prefix []float64
	var rootNS, unattributed int64
	var first *tracer
	var firstAn analysis
	for _, seed := range seeds {
		before := readGoRuntime()
		u, err := runCampaign(w, w.campaignConfig(seed), iters, 0, hooks{})
		if err != nil {
			return err
		}
		rt = rt.add(readGoRuntime().sub(before))
		plain = append(plain, u)
		sts = append(sts, u.st)
		gaps = u.iterGaps(gaps)
		if d, ok := u.timeToBugs(); ok {
			ttb = append(ttb, d.Seconds())
		}
		key := fingerprintKey(seed, iters)
		ok := ck.campaign(key, fingerprintOf(u.st))

		ct := &campaignTrace{t: newTracer(12 * iters), smp: smp}
		t, err := runCampaign(w, w.campaignConfig(seed), iters, 0, ct.hooks(w.cached))
		if err != nil {
			return err
		}
		traced = append(traced, t)
		ok = ck.equivalent(fmt.Sprintf("traced campaign %s vs untraced", key), fingerprintOf(t.st), fingerprintOf(u.st)) && ok
		rep.attempted += int64(u.st.Iterations + t.st.Iterations)
		rep.failed += int64(u.failures() + t.failures())
		if !ok {
			rep.failed += int64(u.st.Iterations)
		}

		an := ct.t.analyze()
		rootNS += an.rootNS
		unattributed += an.unattributed
		generate = append(generate, an.meanNS("core.generate"))
		lookup = append(lookup, an.meanNS("vcache.lookup"))
		insert = append(insert, an.meanNS("vcache.insert"))
		prefix = append(prefix, an.meanNS("vcache.lookup_prefix", "vcache.insert_prefix", "vcache.note_prefix"))
		if first == nil {
			first, firstAn = ct.t, an
		}
	}

	m := rep.metrics
	statsMetrics(m, sts)
	total := 0
	for _, u := range plain {
		total += u.st.Iterations
	}
	goRuntimeMetrics(m, rt, total)
	m["core.iter_p99_us"] = percentile(gaps, 0.99)
	m["core.generate.ns_per_call"] = median(generate)
	m["time_to_bugs_s"] = median(ttb)
	m["failed_frac"] = ratio(float64(rep.failed), float64(rep.attempted))
	m["trace.overhead_frac"] = 1 - ratio(rate(traced), rate(plain))
	m["trace.unattributed_frac"] = ratio(float64(unattributed), float64(rootNS))
	if w.cached {
		m["vcache.lookup.ns_per_call"] = median(lookup)
		m["vcache.insert.ns_per_call"] = median(insert)
		m["vcache.prefix.ns_per_call"] = median(prefix)
	}

	k, _, err := replayKernel()
	if err != nil {
		return err
	}
	rs := replayLayers(k, smp.progs, smp.verdicts, !w.cached)
	replayMetrics(m, rs, !w.cached)
	if rs.verdictMismatches > 0 {
		rep.problem("%s: %d of %d sampled cache inserts changed verdict when re-verified with the cache off",
			w.name, rs.verdictMismatches, rs.verdictsChecked)
	}
	sample := "generator output (the cache is off, so the seams expose fresh generations only)"
	if w.cached {
		sample = "programs looked up in the verdict cache (fresh generations and mutants)"
	}
	rep.meta["replay_sample"] = sample
	rep.meta["replay_programs"] = rs.programs
	rep.meta["replay_accepted"] = rs.accepted
	rep.meta["replay_verdicts_checked"] = rs.verdictsChecked

	if err := orchestratorProbe(o.seed, m); err != nil {
		return err
	}
	path, err := first.writeTrace(tracesDir(o), w.name, o.seed, firstAn)
	if err != nil {
		return err
	}
	rep.meta["trace_file"] = path
	rep.meta["campaigns"] = len(seeds)
	rep.meta["campaign_iters"] = iters
	rep.meta["iterations"] = total
	for _, s := range firstAn.summaries {
		tag := ""
		if s.SelfReported {
			tag = " (self-reported)"
		}
		rep.linef("# span %-26s n=%-8d total %10.1f ms  self %10.1f ms  p50 %8.2f us  p99 %8.2f us%s",
			s.Name, s.Count, s.TotalMS, s.SelfMS, s.P50US, s.P99US, tag)
	}
	return nil
}

// tracedPanel is the part of the panel a traced run measures: the first
// half of what one untraced run measures per core, since each campaign
// runs twice (untraced, then traced) and one at a time.
func tracedPanel(w workload, o options) []int64 {
	seeds := w.panel(o.seed, o.seconds, o.campaigns)
	return seeds[:(len(seeds)+2*w.parallel-1)/(2*w.parallel)]
}

func rate(runs []*campaignRun) float64 {
	var iters int
	var wall time.Duration
	for _, r := range runs {
		iters += r.st.Iterations
		wall += r.wall
	}
	return ratio(float64(iters), wall.Seconds())
}

// orchestratorProbe times the control plane for a campaign workload,
// which bypasses it: one small traced service campaign (probeIters
// iterations over serviceUnits units). Its verdicts are not part of the
// workload's fingerprint.
func orchestratorProbe(seed int64, m map[string]float64) error {
	const probeIters = 2000
	tr := newTracer(1024)
	r, err := runService(seed, probeIters, tr)
	if err != nil {
		return fmt.Errorf("orchestrator probe: %w", err)
	}
	leases, results := rpcDurations(tr)
	orchestratorMetrics(m, leases, results, []*serviceRun{r})
	return nil
}

// rpcDurations returns the lease and result round trips in milliseconds.
func rpcDurations(t *tracer) (leases, results []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	lease, okL := t.index["orchestrator.lease"]
	result, okR := t.index["orchestrator.result"]
	for _, s := range t.spans {
		ms := float64(s.end-s.start) / 1e6
		switch {
		case okL && s.name == lease:
			leases = append(leases, ms)
		case okR && s.name == result:
			results = append(results, ms)
		}
	}
	return leases, results
}

// traceService is the traced run of the service workload: the
// tracedPanel campaigns untraced, then traced on the same seeds
// (fingerprints must agree), then the layer replay on generator output,
// since no program crosses the service's seams.
func traceService(o options, w workload, ck *checker, rep *report) error {
	seeds := tracedPanel(w, o)
	iters := w.iters
	if o.iters > 0 {
		iters = o.iters
	}
	var plain, traced []*serviceRun
	var sts []*core.Stats
	var rt goRuntime
	var gaps, ttb, leases, results []float64
	var rootNS, unattributed int64
	var first *tracer
	var firstAn analysis
	total := 0
	for _, seed := range seeds {
		before := readGoRuntime()
		u, err := runService(seed, iters, nil)
		if err != nil {
			return err
		}
		rt = rt.add(readGoRuntime().sub(before))
		plain = append(plain, u)
		sts = append(sts, u.merged)
		gaps = u.roundGaps(gaps)
		if d, ok := u.timeToBugs(); ok {
			ttb = append(ttb, d.Seconds())
		}
		total += u.merged.Iterations
		key := fingerprintKey(seed, iters)
		ok := ck.campaign(key, fingerprintOf(u.merged))

		tr := newTracer(4096)
		t, err := runService(seed, iters, tr)
		if err != nil {
			return err
		}
		traced = append(traced, t)
		ok = ck.equivalent(fmt.Sprintf("traced campaign %s vs untraced", key), fingerprintOf(t.merged), fingerprintOf(u.merged)) && ok
		rep.attempted += int64(u.attempted() + t.attempted())
		rep.failed += int64(u.failures() + t.failures())
		if !ok {
			rep.failed += int64(u.merged.Iterations)
		}
		an := tr.analyze()
		rootNS += an.rootNS
		unattributed += an.unattributed
		l, r := rpcDurations(tr)
		leases = append(leases, l...)
		results = append(results, r...)
		if first == nil {
			first, firstAn = tr, an
		}
	}

	m := rep.metrics
	statsMetrics(m, sts)
	goRuntimeMetrics(m, rt, total)
	orchestratorMetrics(m, leases, results, plain)
	m["core.iter_p99_us"] = percentile(gaps, 0.99)
	m["time_to_bugs_s"] = median(ttb)
	m["failed_frac"] = ratio(float64(rep.failed), float64(rep.attempted))
	m["trace.overhead_frac"] = 1 - ratio(serviceRate(traced), serviceRate(plain))
	m["trace.unattributed_frac"] = ratio(float64(unattributed), float64(rootNS))

	k, pool, err := replayKernel()
	if err != nil {
		return err
	}
	progs, genNS := generateSample(o.seed, replaySize, pool)
	m["core.generate.ns_per_call"] = genNS
	rs := replayLayers(k, progs, nil, true)
	replayMetrics(m, rs, true)
	rep.meta["replay_sample"] = "generator output (no program crosses the service seams)"
	rep.meta["replay_programs"] = rs.programs
	rep.meta["replay_accepted"] = rs.accepted

	path, err := first.writeTrace(tracesDir(o), w.name, o.seed, firstAn)
	if err != nil {
		return err
	}
	rep.meta["trace_file"] = path
	rep.meta["campaigns"] = len(seeds)
	rep.meta["campaign_iters"] = iters
	rep.meta["iterations"] = total
	for _, s := range firstAn.summaries {
		rep.linef("# span %-26s n=%-6d total %10.1f ms  self %10.1f ms  p50 %9.2f us  p99 %9.2f us",
			s.Name, s.Count, s.TotalMS, s.SelfMS, s.P50US, s.P99US)
	}
	return nil
}

func serviceRate(runs []*serviceRun) float64 {
	var iters int
	var wall time.Duration
	for _, r := range runs {
		iters += r.merged.Iterations
		wall += r.wall
	}
	return ratio(float64(iters), wall.Seconds())
}

func tracesDir(o options) string { return filepath.Join(o.buildDir, "traces") }
