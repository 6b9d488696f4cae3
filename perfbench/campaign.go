package main

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/isa"
)

// campaignRun is one measured campaign of a panel.
type campaignRun struct {
	st   *core.Stats
	wall time.Duration
	cpu  time.Duration
	// stamps holds one timestamp per OnIteration callback, in
	// nanoseconds since Run was called.
	stamps []int64
	// prefix is the fingerprint after the first prefixIters iterations,
	// when runCampaign was asked for one.
	prefix fingerprint
}

func (r *campaignRun) failures() int {
	n := r.st.CrashCount
	for _, trips := range r.st.WatchdogTrips {
		n += trips
	}
	return n
}

// iterGaps appends the gaps between consecutive OnIteration callbacks
// (the first measured from the Run call) in microseconds.
func (r *campaignRun) iterGaps(dst []float64) []float64 {
	prev := int64(0)
	for _, t := range r.stamps {
		dst = append(dst, float64(t-prev)/1e3)
		prev = t
	}
	return dst
}

// timeToBugs is the wall time from the Run call to the iteration where
// the campaign's last distinct BugKey was first recorded; ok is false
// when the campaign found no bug.
func (r *campaignRun) timeToBugs() (time.Duration, bool) {
	last := -1
	for _, rec := range r.st.Bugs {
		if rec.FoundAt > last {
			last = rec.FoundAt
		}
	}
	if last < 0 || last >= len(r.stamps) {
		return 0, false
	}
	return time.Duration(r.stamps[last]), true
}

// hooks are the seams a traced campaign wraps; the zero value runs the
// campaign exactly as the untraced measurement does.
type hooks struct {
	begin   func()
	source  func(core.ProgramSource) core.ProgramSource
	cache   func(cfg *core.CampaignConfig)
	onIter  func()
	onStage func(stage string, d time.Duration)
}

// runCampaign runs one campaign of w on seed, recording one timestamp per
// OnIteration callback into a preallocated slice — the only
// instrumentation of an untraced run. With prefixIters > 0 the campaign
// runs as Run(prefixIters) then Run(the rest) — Run continues where the
// previous call stopped, so the trajectory is the same — and the
// fingerprint in between is kept for the reference check.
func runCampaign(w workload, cfg core.CampaignConfig, iters, prefixIters int, h hooks) (*campaignRun, error) {
	r := &campaignRun{stamps: make([]int64, 0, iters)}
	if h.source != nil {
		cfg.Source = h.source(cfg.Source)
	}
	if h.cache != nil {
		h.cache(&cfg)
	}
	cfg.OnStage = h.onStage
	var start time.Time
	cfg.OnIteration = func() {
		r.stamps = append(r.stamps, int64(time.Since(start)))
		if h.onIter != nil {
			h.onIter()
		}
	}
	c := core.NewCampaign(cfg)
	quiesce()
	cpu0 := cpuTime()
	if h.begin != nil {
		h.begin()
	}
	start = time.Now()
	var st *core.Stats
	var err error
	if prefixIters > 0 && prefixIters < iters {
		if st, err = c.Run(prefixIters); err == nil {
			r.prefix = fingerprintOf(st)
			st, err = c.Run(iters - prefixIters)
		}
	} else {
		st, err = c.Run(iters)
	}
	r.wall = time.Since(start)
	r.cpu = cpuTime() - cpu0
	if err != nil {
		return nil, fmt.Errorf("%s campaign seed %d: %w", w.name, cfg.Seed, err)
	}
	r.st = st
	return r, nil
}

// setupProbe measures campaign set-up: building the campaign (and its
// verdict cache) and the first kernel with its resource pool, up to the
// moment the first iteration asks the generator for a program.
func setupProbe(w workload, seed int64) (time.Duration, error) {
	quiesce()
	t0 := time.Now()
	cfg := w.campaignConfig(seed)
	src := &firstCallSource{ProgramSource: cfg.Source}
	cfg.Source = src
	c := core.NewCampaign(cfg)
	if _, err := c.Run(1); err != nil {
		return 0, fmt.Errorf("%s set-up probe seed %d: %w", w.name, seed, err)
	}
	if src.first.IsZero() {
		return 0, fmt.Errorf("%s set-up probe seed %d: first iteration did not generate", w.name, seed)
	}
	return src.first.Sub(t0), nil
}

// firstCallSource stamps the first Generate call.
type firstCallSource struct {
	core.ProgramSource
	first time.Time
}

func (s *firstCallSource) Generate(r *rand.Rand, pool []core.MapHandle) *isa.Program {
	if s.first.IsZero() {
		s.first = time.Now()
	}
	return s.ProgramSource.Generate(r, pool)
}

// quiesce collects the previous campaign's garbage outside the measured
// window, so one campaign's heap is not charged to the next.
func quiesce() { goruntime.GC() }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// probeSetups measures set-up at least minSetupProbes times, cycling
// through the panel's seeds.
func probeSetups(w workload, seeds []int64) ([]float64, error) {
	n := len(seeds)
	if n < minSetupProbes {
		n = minSetupProbes
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := setupProbe(w, seeds[i%len(seeds)])
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// referenceShare sets the length of the reference check: the first
// 1/referenceShare of the panel's first campaign.
const referenceShare = 10

// referenceCheck re-runs the first m.PrefixIters iterations of a measured
// campaign in its reference configuration (cache off for the cached
// workload, supervision off for the others) and requires the verdicts the
// measured campaign had reached at that point.
func referenceCheck(w workload, m member, ck *checker) error {
	if m.Prefix == nil {
		return fmt.Errorf("%s campaign seed %d: no prefix fingerprint for the reference check", w.name, m.Seed)
	}
	ref, err := runCampaign(w, w.referenceConfig(m.Seed), m.PrefixIters, 0, hooks{})
	if err != nil {
		return err
	}
	what := fmt.Sprintf("campaign %s vs its reference execution", fingerprintKey(m.Seed, m.PrefixIters))
	ck.equivalent(what, m.Prefix.verdicts(), fingerprintOf(ref.st).verdicts())
	return nil
}
