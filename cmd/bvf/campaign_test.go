package main

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/orchestrator"
)

// TestCampaignSubcommands drives -submit, -campaigns, -campaign-status,
// -stop-campaign and -drain against an in-process bvfd manager and pins
// what each prints.
func TestCampaignSubcommands(t *testing.T) {
	auth, err := orchestrator.NewAuthTable([]orchestrator.ClientQuota{
		{Name: "alice", Token: "s3cret", MaxCampaigns: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := orchestrator.NewManager(orchestrator.ManagerConfig{Auth: auth})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(orchestrator.NewServer(m))
	defer srv.Close()
	cl := orchestrator.NewClient(srv.URL, "bvf-cli")
	retries := 0
	cl.Sleep = func(time.Duration) { retries++ }

	run := func(op campaignOp) (int, string) {
		t.Helper()
		var b strings.Builder
		code := runCampaignOp(cl, op, &b)
		return code, b.String()
	}
	expect := func(label string, op campaignOp, want string) {
		t.Helper()
		code, out := run(op)
		if code != 0 || out != want {
			t.Errorf("%s: exit %d, output\n%q\nwant\n%q", label, code, out, want)
		}
	}

	spec := orchestrator.CampaignSpec{
		Tool: "bvf", Version: "bpf-next", Sanitize: true, Seed: 1,
		TotalIters: 60000, Units: 3, SyncEvery: core.DefaultSyncEvery,
	}
	expect("submit", campaignOp{token: "s3cret", spec: spec, submit: true},
		"campaign c1 submitted (running): bvf for 60000 iterations across 3 units\n")

	// A second campaign is over alice's quota: the 429 is retried, then
	// the command fails without printing a result.
	if code, out := run(campaignOp{token: "s3cret", spec: spec, submit: true}); code == 0 || out != "" {
		t.Errorf("over-quota submit: exit %d, output %q; want non-zero and nothing", code, out)
	}
	if retries == 0 {
		t.Error("over-quota submit was not retried")
	}
	if code, _ := run(campaignOp{token: "wrong", list: true}); code == 0 {
		t.Error("list with a bad token exited 0")
	}

	const header = "ID     OWNER        STATE      TOOL          UNITS        ITERS  NOTES\n"
	expect("list", campaignOp{token: "s3cret", list: true}, header+
		"c1     alice        running    bvf           0/3               0  \n")

	if lr := m.Lease(orchestrator.LeaseRequest{Worker: "w1"}); lr.Status != orchestrator.StatusLease {
		t.Fatalf("lease = %q", lr.Status)
	}
	expect("status", campaignOp{token: "s3cret", statusID: "c1"},
		"campaign c1: running, 0/3 units done, 0 iterations merged, 0 refunded lease(s)\n"+
			"  unit  0 [20000 iters] leased   w1\n"+
			"  unit  1 [20000 iters] pending  \n"+
			"  unit  2 [20000 iters] pending  \n")

	// Unit 0 is in flight, so the stopped campaign drains.
	expect("stop", campaignOp{token: "s3cret", stopID: "c1"}, "campaign c1: draining\n")
	expect("drain", campaignOp{token: "s3cret", drain: true}, "coordinator draining 1 active campaign(s)\n")
	expect("list after drain", campaignOp{token: "s3cret", list: true}, "coordinator: DRAINING\n"+header+
		"c1     alice        draining   bvf           0/3               0  stopped\n")
}
