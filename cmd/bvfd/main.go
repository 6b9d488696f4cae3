// Command bvfd is the fuzzing-as-a-service coordinator: a campaign
// lifecycle manager that serves leased work units from any number of
// concurrent campaigns to bvf -worker processes over a small HTTP+JSON
// control plane.
//
// Usage:
//
//	bvfd [-addr HOST:PORT] [-state-dir DIR] [-lease-ttl D] [-serve]
//	     [-auth SPEC] [-version bpf-next|v6.1|v5.15] [-iters N] [-seed N]
//	     [-units N] [-tool bvf|syzkaller|buzzer|buzzer-random]
//	     [-nosanitize] [-oracle] [-sync-every N] [-triage] [-v]
//
// Two modes:
//
//   - One-shot (default): the spec flags describe a single campaign that
//     is submitted at startup; bvfd exits when it completes, after
//     printing the merged statistics. With -state-dir, a restarted bvfd
//     resumes the persisted campaigns instead of submitting a new one.
//   - Service (-serve): bvfd runs until signaled; campaigns are
//     submitted, listed, stopped, and drained over the control plane
//     (see bvf -submit and friends).
//
// Units are leased with a TTL kept alive by worker heartbeats; a worker
// that dies simply stops heartbeating and its unit is re-leased with its
// full iteration quota. Lease fencing tokens carry the coordinator
// incarnation, which -state-dir persists across restarts.
//
// SIGTERM/SIGINT or a /v1/drain request (bvf -drain) triggers a graceful
// drain: no new leases are granted, in-flight units complete (or their
// leases expire), every campaign's lease table is checkpointed, and bvfd
// exits cleanly. Campaign lifecycle states survive: a restarted bvfd
// resumes them.
//
// -auth enables admission control. Its value is a comma-separated list
// of client entries "name=token[:maxcampaigns[:maxiters]]" (quotas are
// non-negative; 0 or an omitted field means unlimited); submissions must
// then carry a listed token, each client is bounded to its
// concurrent-campaign quota (excess gets 429 + Retry-After, the poll
// interval), and a campaign whose budget exceeds the client's
// per-campaign iteration cap is rejected outright.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/orchestrator"
	"repro/internal/triage"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr     = flag.String("addr", "127.0.0.1:8377", "control-plane listen address")
		stateDir = flag.String("state-dir", "", "root directory for crash-safe coordinator state (empty: in-memory)")
		leaseTTL = flag.Duration("lease-ttl", 15*time.Second, "lease expiry without a heartbeat")
		serve    = flag.Bool("serve", false, "run as a long-lived service (campaigns are submitted over the control plane)")

		authSpec = flag.String("auth", "", "admission control: comma-separated name=token[:maxcampaigns[:maxiters]] client entries (empty: open access)")

		version   = flag.String("version", "bpf-next", "kernel version: v5.15, v6.1 or bpf-next")
		iters     = flag.Int("iters", 100000, "campaign-wide iteration budget")
		seed      = flag.Int64("seed", 1, "campaign seed")
		units     = flag.Int("units", 8, "work units (shards of the equivalent single-process campaign)")
		tool      = flag.String("tool", "bvf", "generator: bvf, syzkaller, buzzer, buzzer-random")
		noSan     = flag.Bool("nosanitize", false, "disable the BVF sanitation patches")
		oracle    = flag.Bool("oracle", false, "arm the abstract-state soundness oracle on every worker")
		syncEvery = flag.Int("sync-every", core.DefaultSyncEvery, "worker round length in iterations (bounds abandon latency)")

		doTriage = flag.Bool("triage", false, "run the validation gauntlet over each campaign's findings before exiting (one-shot mode)")
		verbose  = flag.Bool("v", false, "log every lease, heartbeat rejection, lifecycle transition, and unit completion")
	)
	flag.Parse()

	auth, err := parseAuth(*authSpec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bvfd: %v\n", err)
		return 1
	}
	logf := func(format string, args ...any) {
		if *verbose {
			fmt.Fprintf(os.Stderr, "bvfd: "+format+"\n", args...)
		}
	}
	mgr, err := orchestrator.NewManager(orchestrator.ManagerConfig{
		StateDir:     *stateDir,
		LeaseTTL:     *leaseTTL,
		Auth:         auth,
		ExitWhenIdle: !*serve,
		Logf:         logf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bvfd: %v\n", err)
		return 1
	}

	// One-shot mode submits the flag-described campaign — unless the
	// state dir restored previous campaigns, in which case this run
	// resumes them (a restart must not duplicate the campaign).
	if !*serve {
		restored := mgr.List()
		if len(restored.Campaigns) == 0 {
			spec := orchestrator.CampaignSpec{
				Tool:       *tool,
				Version:    *version,
				Sanitize:   !*noSan,
				Oracle:     *oracle,
				Seed:       *seed,
				TotalIters: *iters,
				Units:      *units,
				SyncEvery:  *syncEvery,
			}
			if _, err := mgr.Submit(orchestrator.SubmitRequest{Spec: spec}); err != nil {
				fmt.Fprintf(os.Stderr, "bvfd: %v\n", err)
				return 1
			}
		} else {
			fmt.Printf("bvfd: resuming %d persisted campaign(s) from %s\n", len(restored.Campaigns), *stateDir)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bvfd: %v\n", err)
		return 1
	}
	srv := &http.Server{Handler: orchestrator.NewServer(mgr)}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	mode := "one-shot"
	if *serve {
		mode = "service"
	}
	fmt.Printf("bvfd: %s coordinator on %s (lease TTL %s, state %q)\n", mode, ln.Addr(), *leaseTTL, *stateDir)

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	start := time.Now()

	// Graceful drain, on a signal or a /v1/drain request: stop granting
	// leases, let in-flight units complete (or expire), checkpoint
	// everything, exit cleanly.
	drain := func(cause string) int {
		n := mgr.Drain()
		fmt.Fprintf(os.Stderr, "bvfd: %s: draining %d active campaign(s)\n", cause, n)
		deadline := time.Now().Add(2 * *leaseTTL)
		for !mgr.Quiesced() && time.Now().Before(deadline) {
			time.Sleep(100 * time.Millisecond)
		}
		mgr.CheckpointAll()
		linger(srv, *leaseTTL)
		fmt.Fprintf(os.Stderr, "bvfd: drained; state checkpointed, exiting\n")
		printCampaigns(mgr)
		return 0
	}
	select {
	case <-mgr.Done():
	case sig := <-sigs:
		return drain(sig.String())
	case <-mgr.Draining():
		return drain("drain requested")
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "bvfd: serve: %v\n", err)
		return 1
	}
	elapsed := time.Since(start)
	linger(srv, *leaseTTL)

	fmt.Printf("\nall campaigns complete in %s\n", elapsed.Round(time.Millisecond))
	printCampaigns(mgr)

	if *doTriage {
		for _, info := range mgr.List().Campaigns {
			store := mgr.Store(info.ID)
			if store == nil || store.Len() == 0 {
				continue
			}
			fmt.Printf("\n[%s] validating %d finding(s) through the gauntlet...\n\n", info.ID, store.Len())
			g := triage.New(triage.Config{}, store)
			sum, gerr := g.Run()
			sum.Print(os.Stdout)
			if gerr != nil {
				fmt.Fprintf(os.Stderr, "bvfd: triage %s: %v\n", info.ID, gerr)
				return 1
			}
		}
	}
	return 0
}

// linger keeps answering for two poll intervals (the manager's default,
// a quarter lease TTL; at least a second) before closing the server, so
// every waiting worker's next lease call sees StatusDone or StatusDrain
// and exits cleanly instead of dying on a refused connection.
func linger(srv *http.Server, leaseTTL time.Duration) {
	time.Sleep(max(2*(leaseTTL/4), time.Second))
	_ = srv.Close()
}

// printCampaigns renders every campaign's final summary.
func printCampaigns(mgr *orchestrator.Manager) {
	for _, info := range mgr.List().Campaigns {
		st, err := mgr.Status(orchestrator.StatusRequest{Campaign: info.ID})
		if err != nil {
			continue
		}
		writeCampaign(os.Stdout, st, mgr.MergedStats(info.ID))
	}
}

// writeCampaign renders one campaign's summary block: the [cN] header,
// then either its failure or its refunded leases and the shared Stats
// summary (nothing more when stats is nil).
func writeCampaign(w io.Writer, st orchestrator.StatusResponse, stats *core.Stats) {
	fmt.Fprintf(w, "\n[%s] %s owner=%s tool=%s units=%d/%d", st.ID, st.State, st.Owner, st.Spec.Tool, st.UnitsDone, st.Spec.Units)
	if st.Stopped {
		fmt.Fprint(w, " (stopped)")
	}
	fmt.Fprintln(w)
	switch {
	case st.Failure != "":
		fmt.Fprintf(w, "  failure: %s\n", st.Failure)
	case stats != nil:
		fmt.Fprintf(w, "  refunded leases:  %d\n", st.RefundedLeases)
		stats.WriteSummary(w, "  ", false)
	}
}

// parseAuth turns the -auth flag value into an AuthTable. Each comma-
// separated entry is "name=token[:maxcampaigns[:maxiters]]"; a quota is a
// non-negative integer, and 0 (or an omitted field) means unlimited.
func parseAuth(spec string) (*orchestrator.AuthTable, error) {
	if spec == "" {
		return nil, nil
	}
	var (
		quotas []orchestrator.ClientQuota
		err    error
	)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("bad -auth entry %q: want name=token[:maxcampaigns[:maxiters]]", entry)
		}
		parts := strings.Split(rest, ":")
		if len(parts) > 3 {
			return nil, fmt.Errorf("bad -auth entry %q: too many fields", entry)
		}
		parts = append(parts, "", "") // absent quota fields are empty
		q := orchestrator.ClientQuota{Name: name, Token: parts[0]}
		if q.MaxCampaigns, err = parseQuota(parts[1]); err != nil {
			return nil, fmt.Errorf("bad -auth entry %q: maxcampaigns: %v", entry, err)
		}
		if q.MaxIters, err = parseQuota(parts[2]); err != nil {
			return nil, fmt.Errorf("bad -auth entry %q: maxiters: %v", entry, err)
		}
		quotas = append(quotas, q)
	}
	return orchestrator.NewAuthTable(quotas)
}

// parseQuota reads one -auth quota field: empty means 0 (unlimited),
// anything else must be a non-negative integer. A negative cap would
// otherwise read as unlimited, silently lifting the limit it mistypes.
func parseQuota(field string) (int, error) {
	if field == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(field)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("want a non-negative integer, got %q", field)
	}
	return n, nil
}
