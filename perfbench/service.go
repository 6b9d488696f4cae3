package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/orchestrator"
)

// serviceRun is one campaign through an in-process bvfd: a manager and
// its HTTP control plane on a loopback listener, and serviceWorkers
// workers, each with its own connection, leasing the spec's units.
type serviceRun struct {
	merged *core.Stats
	// setup runs from manager construction to the first lease; wall from
	// the first lease to the coordinator's acceptance of the last result.
	setup, wall time.Duration
	cpu         time.Duration
	units       []unitRecord
	refunds     int
	calls       map[string]int
	failedCalls int
	workerErrs  int
}

// unitRecord is one executed unit: its runner's start and end, and one
// progress stamp per round of serviceSyncEvery iterations.
type unitRecord struct {
	id         int
	start, end time.Time
	stamps     []progressStamp
}

type progressStamp struct {
	at   time.Time
	done int
}

// serviceState is shared by the workers, their transports and runners.
type serviceState struct {
	tr *tracer // nil in untraced runs

	mu          sync.Mutex
	firstLease  time.Time
	lastResult  time.Time
	units       []unitRecord
	calls       map[string]int
	failedCalls int
}

func serviceSpec(seed int64, iters int) orchestrator.CampaignSpec {
	return orchestrator.CampaignSpec{
		Tool: "bvf", Version: kernel.BPFNext.String(), Sanitize: true,
		Seed: seed, TotalIters: iters, Units: serviceUnits, SyncEvery: serviceSyncEvery,
	}
}

// runService runs one service campaign. tr, when non-nil, records spans
// around every control-plane call and unit execution.
func runService(seed int64, iters int, tr *tracer) (*serviceRun, error) {
	spec := serviceSpec(seed, iters)
	s := &serviceState{tr: tr, calls: map[string]int{}}
	quiesce()
	cpu0 := cpuTime()
	t0 := time.Now()
	// bvfd's default lease TTL; a short poll interval lets the worker
	// that waits out the last unit exit promptly (the measured window
	// ends when the last result is accepted, before either exits).
	m, err := orchestrator.NewManager(orchestrator.ManagerConfig{
		LeaseTTL: 15 * time.Second, PollInterval: 20 * time.Millisecond, ExitWhenIdle: true,
	})
	if err != nil {
		return nil, fmt.Errorf("service: manager: %w", err)
	}
	sub, err := m.Submit(orchestrator.SubmitRequest{Spec: spec})
	if err != nil {
		return nil, fmt.Errorf("service: submit: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("service: listen: %w", err)
	}
	srv := &http.Server{Handler: orchestrator.NewServer(m)}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	var wg sync.WaitGroup
	errs := make([]error, serviceWorkers)
	transports := make([]*http.Transport, serviceWorkers)
	for i := 0; i < serviceWorkers; i++ {
		name := fmt.Sprintf("w%d", i)
		transports[i] = &http.Transport{MaxIdleConnsPerHost: 1}
		cl := orchestrator.NewClient(url, name)
		cl.HTTP = &http.Client{Timeout: 10 * time.Second, Transport: &rpcRecorder{base: transports[i], s: s, worker: i}}
		wk := orchestrator.NewWorker(orchestrator.WorkerConfig{Name: name, Client: cl, Runner: s.runner(i)})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var begin int64
			if tr != nil {
				begin = tr.now()
			}
			errs[i] = wk.Run()
			if tr != nil {
				tr.add(span{start: begin, end: tr.now(), name: spanWorker, group: int32(i), root: true})
			}
		}(i)
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	closeErr := srv.Close()
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return nil, fmt.Errorf("service: serve: %w", err)
	}
	if closeErr != nil {
		return nil, fmt.Errorf("service: close: %w", closeErr)
	}
	for _, t := range transports {
		t.CloseIdleConnections()
	}

	r := &serviceRun{
		cpu: cpu, units: s.units, refunds: m.Refunds(),
		calls: s.calls, failedCalls: s.failedCalls,
	}
	for _, err := range errs {
		if err != nil {
			r.workerErrs++
		}
	}
	if s.firstLease.IsZero() || s.lastResult.IsZero() {
		return nil, fmt.Errorf("service seed %d: no unit was leased and committed", seed)
	}
	r.setup = s.firstLease.Sub(t0)
	r.wall = s.lastResult.Sub(s.firstLease)
	if r.merged = m.MergedStats(sub.ID); r.merged == nil {
		return nil, fmt.Errorf("service seed %d: no merged statistics", seed)
	}
	return r, nil
}

// runner wraps orchestrator.SpecRunner, recording the unit's progress
// at every round edge.
func (s *serviceState) runner(worker int) orchestrator.UnitRunner {
	return func(spec orchestrator.CampaignSpec, u orchestrator.Unit, progress func(int), abort func() bool) (*core.Stats, error) {
		rec := unitRecord{id: u.ID, start: time.Now()}
		rec.stamps = make([]progressStamp, 0, u.Quota/serviceSyncEvery+1)
		s.mu.Lock()
		if s.firstLease.IsZero() {
			s.firstLease = rec.start
		}
		s.mu.Unlock()
		var begin int64
		if s.tr != nil {
			begin = s.tr.now()
		}
		st, err := orchestrator.SpecRunner(spec, u, func(done int) {
			rec.stamps = append(rec.stamps, progressStamp{at: time.Now(), done: done})
			progress(done)
		}, abort)
		rec.end = time.Now()
		if s.tr != nil {
			s.tr.add(span{start: begin, end: s.tr.now(), name: spanUnit, group: int32(worker)})
		}
		s.mu.Lock()
		s.units = append(s.units, rec)
		s.mu.Unlock()
		return st, err
	}
}

// rpcRecorder counts control-plane calls and their failures, stamps the
// last accepted result, and in traced runs records an orchestrator.<path>
// span per call.
type rpcRecorder struct {
	base   http.RoundTripper
	s      *serviceState
	worker int
}

func (t *rpcRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	var begin int64
	if t.s.tr != nil {
		begin = t.s.tr.now()
	}
	resp, err := t.base.RoundTrip(req)
	end := time.Now()
	path := strings.TrimPrefix(req.URL.Path, "/v1/")
	if t.s.tr != nil {
		t.s.tr.add(span{start: begin, end: t.s.tr.now(), name: t.s.tr.rpcName(path), group: int32(t.worker)})
	}
	ok := err == nil && resp.StatusCode == http.StatusOK
	t.s.mu.Lock()
	t.s.calls[path]++
	if !ok {
		t.s.failedCalls++
	}
	if ok && req.URL.Path == orchestrator.PathResult {
		t.s.lastResult = end
	}
	t.s.mu.Unlock()
	return resp, err
}

// roundGaps appends, for every round of every unit, the mean gap between
// iterations in that round, in microseconds.
func (r *serviceRun) roundGaps(dst []float64) []float64 {
	for _, u := range r.units {
		prevAt, prevDone := u.start, 0
		for _, p := range u.stamps {
			if n := p.done - prevDone; n > 0 {
				dst = append(dst, float64(p.at.Sub(prevAt).Microseconds())/float64(n))
			}
			prevAt, prevDone = p.at, p.done
		}
	}
	return dst
}

// timeToBugs maps the last distinct BugKey's global iteration back to
// its unit (the coordinator numbers iteration l of unit u as
// l*serviceUnits+u) and interpolates when that unit reached it, measured
// from the first lease.
func (r *serviceRun) timeToBugs() (time.Duration, bool) {
	var first time.Time
	byID := map[int]unitRecord{}
	for _, u := range r.units {
		byID[u.id] = u
		if first.IsZero() || u.start.Before(first) {
			first = u.start
		}
	}
	var latest time.Duration
	found := false
	for _, rec := range r.merged.Bugs {
		u, ok := byID[rec.FoundAt%serviceUnits]
		if !ok {
			continue
		}
		local := rec.FoundAt / serviceUnits
		at := u.start
		prevAt, prevDone := u.start, 0
		for _, p := range u.stamps {
			if local < p.done {
				frac := float64(local-prevDone) / float64(p.done-prevDone)
				at = prevAt.Add(time.Duration(frac * float64(p.at.Sub(prevAt))))
				break
			}
			prevAt, prevDone = p.at, p.done
		}
		if d := at.Sub(first); d > latest || !found {
			latest, found = d, true
		}
	}
	return latest, found
}

// busy is the total time runners spent executing units.
func (r *serviceRun) busy() time.Duration {
	var d time.Duration
	for _, u := range r.units {
		d += u.end.Sub(u.start)
	}
	return d
}

func (r *serviceRun) failures() int {
	n := r.merged.CrashCount + r.refunds + r.failedCalls + r.workerErrs
	for _, trips := range r.merged.WatchdogTrips {
		n += trips
	}
	return n
}

func (r *serviceRun) attempted() int {
	n := r.merged.Iterations
	for _, c := range r.calls {
		n += c
	}
	return n
}

// serviceReference runs the single-process campaign a distributed one
// must reproduce bit for bit: a ParallelCampaign with one shard per unit
// and a single round, so shards exchange nothing (shard i ≡ unit i).
func serviceReference(seed int64, iters int) (*core.Stats, error) {
	ver := kernel.BPFNext
	ref := core.NewParallelCampaign(core.ParallelConfig{
		CampaignConfig: core.CampaignConfig{
			Source: core.BVFSource(ver.HasKfuncs()), Version: ver,
			Sanitize: true, Seed: seed, NoMinimize: true,
			Supervision: core.SupervisorConfig{Enabled: true},
		},
		Workers:   serviceUnits,
		SyncEvery: iters / serviceUnits,
	})
	st, err := ref.Run(iters)
	if err != nil {
		return nil, fmt.Errorf("service reference seed %d: %w", seed, err)
	}
	return st, nil
}

func serviceReferenceCheck(m member, ck *checker) error {
	ref, err := serviceReference(m.Seed, m.Iterations)
	if err != nil {
		return err
	}
	what := fmt.Sprintf("campaign %s vs single-process ParallelCampaign", fingerprintKey(m.Seed, m.Iterations))
	ck.equivalent(what, m.Fingerprint, fingerprintOf(ref))
	return nil
}
