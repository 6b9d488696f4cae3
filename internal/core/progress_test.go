package core

import (
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kernel"
)

// snapshot returns a progress snapshot with empty statistics.
func snapshot(elapsed time.Duration) *progress {
	return &progress{elapsed: elapsed, stats: NewStats("BVF", kernel.BPFNext)}
}

// TestProgressStageShares: every stage, cache and oracle included, gets
// its share, and the shares are over the total of all stages.
func TestProgressStageShares(t *testing.T) {
	cur := snapshot(5 * time.Second)
	cur.coverage = 270
	cur.stats.Iterations, cur.stats.Accepted = 1000, 500
	cur.stats.Bugs[BugKey{ID: 1}] = &BugRecord{}
	cur.stats.StageNanos = map[string]int64{
		StageGen: 20, StageVerify: 50, StageCache: 10, StageExec: 10, StageOracle: 5, StageTriage: 5,
	}
	got := formatProgress(snapshot(0), cur)
	want := "[      5s] 1000 iters  200/s  accept 50.0%  coverage 270  bugs 1" +
		" gen 20% verify 50% cache 10% exec 10% oracle 5% triage 5%"
	if got != want {
		t.Errorf("progress line\n got %q\nwant %q", got, want)
	}
}

// TestProgressHitRates: the whole-program and prefix hit rates are the
// Stats ratios, and the hit part is absent without cache traffic.
func TestProgressHitRates(t *testing.T) {
	cur := snapshot(0)
	cur.stats.CacheHits, cur.stats.CacheMisses = 7, 3
	cur.stats.CachePrefixHits, cur.stats.CachePrefixMisses = 2, 1
	if got := formatProgress(snapshot(0), cur); !strings.HasSuffix(got, "  hits 70%/67%") {
		t.Errorf("progress line %q lacks the Stats hit rates", got)
	}
	if got := formatProgress(snapshot(0), snapshot(0)); strings.Contains(got, "hits") {
		t.Errorf("progress line %q reports hits without lookups", got)
	}
}

// TestProgressResumedRate: a resumed campaign's starting snapshot already
// carries its restored iterations, and the first tick's rate counts only
// the iterations run since.
func TestProgressResumedRate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	p1 := NewParallelCampaign(checkpointConfig(5, path))
	if _, err := p1.Run(1024); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	p2 := NewParallelCampaign(checkpointConfig(5, path))
	if err := p2.Resume(snap); err != nil {
		t.Fatal(err)
	}
	p2.startReporter()()
	start := p2.latest.Load()
	if start.stats.Iterations != 1024 {
		t.Fatalf("resumed starting snapshot has %d iterations, want 1024", start.stats.Iterations)
	}
	tick := snapshot(start.elapsed + time.Second)
	tick.stats.Iterations = start.stats.Iterations + 500
	if got := formatProgress(start, tick); !strings.Contains(got, " 1524 iters  500/s ") {
		t.Errorf("first tick after resume = %q, want 1524 iters at 500/s", got)
	}
}

// lockedBuffer is a Progress writer safe for the reporter goroutine and
// the test to share.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestProgressReporterDuringRun runs the reporter against live barriers
// (meant for -race): it only ever reads published snapshots, and every
// line it prints is well formed.
func TestProgressReporterDuringRun(t *testing.T) {
	var out lockedBuffer
	cfg := parallelConfig(2, 11)
	cfg.SyncEvery = 128
	cfg.Progress = &out
	cfg.ReportEvery = time.Millisecond
	p := NewParallelCampaign(cfg)
	if _, err := p.Run(2048); err != nil {
		t.Fatal(err)
	}
	if got := p.latest.Load().stats.Iterations; got != 2048 {
		t.Errorf("last snapshot has %d iterations, want 2048", got)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	lineRE := regexp.MustCompile(`^\[ *\d+s\] \d+ iters  \d+/s  accept \d+\.\d%  coverage \d+  bugs \d+( [a-z]+ \d+%)*$`)
	for _, l := range lines {
		if !lineRE.MatchString(l) {
			t.Errorf("malformed progress line %q", l)
		}
	}
}
