package main

import (
	"math/rand"
	goruntime "runtime"
	"time"

	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/oracle"
	"repro/internal/runtime"
	"repro/internal/sanitizer"
	"repro/internal/vcache"
	"repro/internal/verifier"
)

// replaySize is the fixed number of programs the layer replay times, and
// replayPasses how many timed passes it takes over them (the median pass
// is reported).
const (
	replaySize   = 256
	replayPasses = 5
)

// replayStats are the layer replay's per-call figures.
type replayStats struct {
	programs, accepted int

	validateNS      float64
	verifyNS        float64
	verifyNoCovNS   float64
	recordStatesNS  float64
	allocsPerVerify float64
	insnsPerVerify  float64
	statesPerVerify float64
	instrumentNS    float64
	footprint       float64
	runNS           float64
	stepsPerRun     float64
	oracleNS        float64
	checksPerRun    float64
	lookupNS        float64
	insertNS        float64
	prefixNS        float64

	// verdictsChecked counts sampled cache inserts re-verified with the
	// cache off; verdictMismatches those whose verdict differed.
	verdictsChecked, verdictMismatches int
}

// replayKernel is a fresh kernel holding the campaign's standard resource
// pool (core.PoolSpecs, created in order, so map fds match the ones the
// sampled programs reference).
func replayKernel() (*kernel.Kernel, []core.MapHandle, error) {
	k := kernel.New(kernel.Config{Version: kernel.BPFNext, Sanitize: true, Cov: coverage.NewMap()})
	var pool []core.MapHandle
	for _, spec := range core.PoolSpecs() {
		fd, err := k.CreateMap(spec)
		if err != nil {
			return nil, nil, err
		}
		pool = append(pool, core.MapHandle{FD: fd, Spec: spec})
	}
	return k, pool, nil
}

// generateSample draws n fresh programs from the BVF generator against
// the replay kernel's pool — the sample of a workload whose seams expose
// no program — and times further generations, for core.generate where no
// campaign seam timed it.
func generateSample(seed int64, n int, pool []core.MapHandle) ([]*isa.Program, float64) {
	src := core.BVFSource(kernel.BPFNext.HasKfuncs())
	r := rand.New(rand.NewSource(seed))
	progs := make([]*isa.Program, n)
	for i := range progs {
		progs[i] = src.Generate(r, pool)
	}
	return progs, perCall(n, func(int) { src.Generate(r, pool) })
}

// perCall times passes over n calls and returns the median pass's time
// per call in nanoseconds.
func perCall(n int, call func(i int)) float64 {
	if n == 0 {
		return 0
	}
	passes := make([]float64, replayPasses)
	for p := range passes {
		start := time.Now()
		for i := 0; i < n; i++ {
			call(i)
		}
		passes[p] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(passes)
}

// replayLayers times each layer's public entry point on the sampled
// programs: isa.Program.Validate, verifier.Verify (cache off; with and
// without coverage; with and without RecordStates), sanitizer.Instrument,
// kernel.LoadProgram and kernel.Run, and oracle.Run. With cacheReplay it
// also verifies the sample twice through a fresh vcache.Store (misses,
// then hits) to time the cache layer on a workload that bypasses it.
// Sampled cache inserts are re-verified with the cache off.
func replayLayers(k *kernel.Kernel, progs []*isa.Program, verdicts []sampledVerdict, cacheReplay bool) replayStats {
	st := replayStats{programs: len(progs)}
	n := len(progs)
	base := *k.VerifierConfig()
	base.Cache, base.CacheNanos, base.Timeout = nil, nil, 0
	withCov := base
	noCov := base
	noCov.Cov = nil
	recording := base
	recording.RecordStates = true

	st.validateNS = perCall(n, func(i int) { _ = progs[i].Validate(isa.MaxInsns) })

	results := make([]*verifier.Result, n)
	st.verifyNS = perCall(n, func(i int) { results[i], _ = verifier.Verify(progs[i], &withCov) })
	st.verifyNoCovNS = perCall(n, func(i int) { _, _ = verifier.Verify(progs[i], &noCov) })
	recorded := make([]*verifier.Result, n)
	st.recordStatesNS = perCall(n, func(i int) { recorded[i], _ = verifier.Verify(progs[i], &recording) }) - st.verifyNS

	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	for _, p := range progs {
		_, _ = verifier.Verify(p, &withCov)
	}
	goruntime.ReadMemStats(&m1)
	st.allocsPerVerify = ratio(float64(m1.Mallocs-m0.Mallocs), float64(n))

	var accepted []*verifier.Result
	var acceptedProgs []*isa.Program
	var recordedOK []*verifier.Result
	var insns, states float64
	for i, res := range results {
		if res == nil {
			continue
		}
		accepted = append(accepted, res)
		acceptedProgs = append(acceptedProgs, progs[i])
		insns += float64(res.InsnProcessed)
		states += float64(res.TotalStates)
		if recorded[i] != nil && recorded[i].States != nil {
			recordedOK = append(recordedOK, recorded[i])
		}
	}
	st.accepted = len(accepted)
	st.insnsPerVerify = ratio(insns, float64(len(accepted)))
	st.statesPerVerify = ratio(states, float64(len(accepted)))

	var footprint float64
	st.instrumentNS = perCall(len(accepted), func(i int) {
		_, s, err := sanitizer.Instrument(accepted[i].Prog, accepted[i].RangeChecks)
		if err == nil {
			footprint += s.Footprint()
		}
	})
	st.footprint = ratio(footprint, float64(replayPasses*len(accepted)))

	var loaded []*kernel.LoadedProg
	for _, p := range acceptedProgs {
		if lp, err := k.LoadProgram(p); err == nil {
			loaded = append(loaded, lp)
		}
	}
	var steps float64
	st.runNS = perCall(len(loaded), func(i int) { steps += float64(k.Run(loaded[i]).Steps) })
	st.stepsPerRun = ratio(steps, float64(replayPasses*len(loaded)))

	var checks float64
	st.oracleNS = perCall(len(recordedOK), func(i int) {
		k.M.Lockdep.Reset()
		checks += float64(oracle.Run(runtime.NewExec(k.M, recordedOK[i].Prog), recordedOK[i].States).Checks)
	})
	st.checksPerRun = ratio(checks, float64(replayPasses*len(recordedOK)))

	if cacheReplay {
		t := newTracer(8 * n)
		var group int32
		cached := withCov
		cached.Cache = &tracedCache{inner: vcache.NewStore(0), t: t, group: &group}
		for pass := 0; pass < 2; pass++ {
			for _, p := range progs {
				_, _ = verifier.Verify(p, &cached)
			}
		}
		an := t.analyze()
		st.lookupNS = an.meanNS("vcache.lookup")
		st.insertNS = an.meanNS("vcache.insert")
		st.prefixNS = an.meanNS("vcache.lookup_prefix", "vcache.insert_prefix", "vcache.note_prefix")
	}

	for _, v := range verdicts {
		_, err := verifier.Verify(v.prog, &withCov)
		st.verdictsChecked++
		if (err != nil) != v.rejected {
			st.verdictMismatches++
		}
	}
	return st
}
