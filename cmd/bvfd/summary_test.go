package main

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/bugs"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/orchestrator"
)

// TestWriteCampaign pins the summary block the e2e drills parse (header,
// iterations, refunded leases, bug lines) and checks that bvfd reports
// contained harness crashes and watchdog trips like bvf does.
func TestWriteCampaign(t *testing.T) {
	st := core.NewStats("BVF", kernel.BPFNext)
	st.Iterations = 60000
	st.Bugs[core.BugKey{ID: bugs.Bug6SendSignal, Indicator: kernel.Indicator2, Kind: "kernel-panic"}] = &core.BugRecord{
		ID: bugs.Bug6SendSignal, Indicator: kernel.Indicator2, Kind: "kernel-panic", FoundAt: 675,
	}
	st.CrashCount = 1
	st.HarnessCrashes = []core.HarnessCrash{{Shard: 0, Iteration: 9, Value: "boom"}}
	st.WatchdogTrips[core.WatchdogVerify] = 1
	cs := orchestrator.StatusResponse{
		CampaignInfo: orchestrator.CampaignInfo{
			ID: "c1", State: "completed", Owner: "anonymous",
			Spec: orchestrator.CampaignSpec{Tool: "bvf", Units: 3}, UnitsDone: 3,
		},
		RefundedLeases: 2,
	}

	var b strings.Builder
	writeCampaign(&b, cs, st)
	out := b.String()
	if m := regexp.MustCompile(`(?m)^\[(c\d)\] (\w+) `).FindStringSubmatch(out); m == nil || m[1] != "c1" || m[2] != "completed" {
		t.Errorf("header = %v\n%s", m, out)
	}
	if m := regexp.MustCompile(`iterations:\s+(\d+)`).FindStringSubmatch(out); m == nil || m[1] != "60000" {
		t.Errorf("iterations line = %v\n%s", m, out)
	}
	if m := regexp.MustCompile(`refunded leases:\s+(\d+)`).FindStringSubmatch(out); m == nil || m[1] != "2" {
		t.Errorf("refunded leases line = %v\n%s", m, out)
	}
	if got := bugSet(out); !got["675|"+bugs.Bug6SendSignal.String()+"|2|kernel-panic"] {
		t.Errorf("bug lines = %v\n%s", got, out)
	}
	for _, want := range []string{
		"\n    [iter     675] ",
		"\n  harness crashes:  1 contained (0 shard restarts)\n",
		"\n  watchdog trips:   1 verify, 0 exec\n",
		"\n  harness crash (shard 0, iter 9): boom\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("block lacks %q:\n%s", want, out)
		}
	}

	// A failed campaign prints its failure and no summary.
	b.Reset()
	cs.Failure = "worker pool exhausted"
	writeCampaign(&b, cs, st)
	if out := b.String(); !strings.Contains(out, "  failure: worker pool exhausted\n") || strings.Contains(out, "iterations:") {
		t.Errorf("failed campaign block:\n%s", out)
	}
}

// TestParseAuth pins the -auth grammar: name=token[:maxcampaigns[:maxiters]]
// with non-negative quotas, 0 or an omitted field meaning unlimited.
func TestParseAuth(t *testing.T) {
	accepted := []struct {
		spec  string
		token string
		want  orchestrator.ClientQuota // zero Token: open access
	}{
		{"", "anything", orchestrator.ClientQuota{Name: "anonymous"}},
		{"alice=tok-a", "tok-a", orchestrator.ClientQuota{Name: "alice", Token: "tok-a"}},
		{"alice=s3cret:2:10000000", "s3cret", orchestrator.ClientQuota{Name: "alice", Token: "s3cret", MaxCampaigns: 2, MaxIters: 10000000}},
		{"alice=s3cret::500, bob=b0b:1", "s3cret", orchestrator.ClientQuota{Name: "alice", Token: "s3cret", MaxIters: 500}},
		{"alice=s3cret::500, bob=b0b:1", "b0b", orchestrator.ClientQuota{Name: "bob", Token: "b0b", MaxCampaigns: 1}},
	}
	for _, tc := range accepted {
		tab, err := parseAuth(tc.spec)
		if err != nil {
			t.Errorf("parseAuth(%q): %v", tc.spec, err)
			continue
		}
		if got, err := tab.Authorize(tc.token); err != nil || got != tc.want {
			t.Errorf("parseAuth(%q).Authorize(%q) = (%+v, %v), want %+v", tc.spec, tc.token, got, err, tc.want)
		}
	}
	for _, spec := range []string{
		"alice",             // missing =
		"alice=tok:two",     // non-numeric maxcampaigns
		"alice=tok:2:lots",  // non-numeric maxiters
		"alice=tok:-1",      // negative maxcampaigns
		"alice=tok:2:-5",    // negative maxiters
		"alice=tok:1:2:3",   // too many fields
		"alice=",            // empty token
		"alice=tok,bob=tok", // duplicate token
	} {
		if _, err := parseAuth(spec); err == nil {
			t.Errorf("parseAuth(%q) accepted", spec)
		}
	}
}
