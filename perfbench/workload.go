package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/vcache"
)

// workload is one named benchmark input. Campaign workloads are closed
// loops in one goroutine: core.Campaign starts an iteration only when the
// previous one has finished. The service workload runs an in-process
// bvfd (manager, HTTP server on loopback, two workers).
type workload struct {
	name string
	// iters is the iteration budget of one campaign (for service: of one
	// campaign spec, split into serviceUnits units).
	iters int
	// rate is the nominal iterations per second of one campaign on the
	// 2-vCPU reference host. It only sizes the panel: how many campaigns
	// fill --seconds.
	rate float64
	// parallel is how many panel campaigns run at once: one per core for
	// the single-goroutine campaign workloads, one for the service
	// workload, whose two workers already occupy both cores.
	parallel int
	service  bool
	cached   bool
	batch    int
}

var workloads = []workload{
	{name: "sibling-cached", iters: 100_000, rate: 29_000, parallel: 2, cached: true, batch: 16},
	{name: "classic-uncached", iters: 50_000, rate: 24_000, parallel: 2, batch: 1},
	{name: "service", iters: 80_000, rate: 46_000, parallel: 1, service: true},
}

// Service workload shape: units per campaign spec, worker goroutines
// (one per core, each with its own HTTP connection) and the round length
// at which units report progress.
const (
	serviceUnits     = 8
	serviceWorkers   = 2
	serviceSyncEvery = 1000
)

// seedStride separates the campaign seeds of one panel. Campaign 0 of a
// panel runs on the run's own seed, so the default seed reproduces the
// BENCH_6 campaign (seed 7) exactly.
const seedStride = 1_000_003

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// panel returns the campaign seeds one run measures: enough fixed-size
// campaigns, w.parallel at a time, to fill the requested seconds on the
// reference host. The panel depends only on (seed, seconds), never on the
// speed of the code under test, so parent and change measure identical
// inputs.
func (w workload) panel(seed int64, seconds float64, override int) []int64 {
	k := override
	if k <= 0 {
		k = w.parallel * max(1, int(math.Round(seconds*w.rate/float64(w.iters))))
	}
	seeds := make([]int64, k)
	for i := range seeds {
		seeds[i] = seed + int64(i)*seedStride
	}
	return seeds
}

// campaignConfig is the campaign one panel member runs: BVF generator,
// bpf-next, sanitizer on, and the containment and watchdogs bvf runs
// with, so a harness crash or watchdog trip is counted instead of
// aborting the run.
func (w workload) campaignConfig(seed int64) core.CampaignConfig {
	cfg := core.CampaignConfig{
		Source:      core.BVFSource(kernel.BPFNext.HasKfuncs()),
		Version:     kernel.BPFNext,
		Sanitize:    true,
		Seed:        seed,
		NoMinimize:  true,
		MutateBatch: w.batch,
		Supervision: core.SupervisorConfig{Enabled: true},
	}
	if w.cached {
		cfg.Cache = vcache.NewStore(0)
	}
	return cfg
}

// referenceConfig is the configuration the program's own equivalence
// guarantees say must reproduce campaignConfig's verdicts: the verdict
// cache must not change any verdict (cache on ≡ cache off), and
// supervision only observes (supervised ≡ unsupervised).
func (w workload) referenceConfig(seed int64) core.CampaignConfig {
	cfg := w.campaignConfig(seed)
	if w.cached {
		cfg.Cache = nil
	} else {
		cfg.Supervision = core.SupervisorConfig{}
	}
	return cfg
}
