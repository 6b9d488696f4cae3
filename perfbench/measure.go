package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
)

// member is one measured campaign of a panel, as the child process that
// ran it reports it.
type member struct {
	Seed        int64        `json:"seed"`
	Iterations  int          `json:"iterations"`
	WallS       float64      `json:"wall_s"`
	CPUS        float64      `json:"cpu_s"`
	GapP50US    float64      `json:"gap_p50_us"`
	SetupS      float64      `json:"setup_s,omitempty"`
	Attempted   int          `json:"attempted"`
	Failures    int          `json:"failures"`
	Fingerprint fingerprint  `json:"fingerprint"`
	Prefix      *fingerprint `json:"prefix,omitempty"`
	PrefixIters int          `json:"prefix_iters,omitempty"`
	// PeakRSSMB is the child process's peak resident set.
	PeakRSSMB float64 `json:"-"`
}

// childEnv selects child mode: the process runs one panel member and
// prints its record as JSON.
const childEnv = "PERFBENCH_CHILD"

// childMain runs one panel member (see spawnMember).
func childMain(args []string) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload")
	seed := fs.Int64("seed", 0, "campaign seed")
	iters := fs.Int("iters", 0, "iterations")
	prefix := fs.Int("prefix", 0, "iterations after which to keep a prefix fingerprint")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil {
		var m member
		if m, err = runMember(w, *seed, *iters, *prefix); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(m)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 1
	}
	return 0
}

// runMember runs one campaign of w in this process.
func runMember(w workload, seed int64, iters, prefix int) (member, error) {
	m := member{Seed: seed}
	if w.service {
		r, err := runService(seed, iters, nil)
		if err != nil {
			return m, err
		}
		m.Iterations = r.merged.Iterations
		m.WallS, m.CPUS, m.SetupS = r.wall.Seconds(), r.cpu.Seconds(), r.setup.Seconds()
		m.GapP50US = median(r.roundGaps(nil))
		m.Attempted, m.Failures = r.attempted(), r.failures()
		m.Fingerprint = fingerprintOf(r.merged)
		return m, nil
	}
	r, err := runCampaign(w, w.campaignConfig(seed), iters, prefix, hooks{})
	if err != nil {
		return m, err
	}
	m.Iterations = r.st.Iterations
	m.WallS, m.CPUS = r.wall.Seconds(), r.cpu.Seconds()
	m.GapP50US = median(r.iterGaps(nil))
	m.Attempted, m.Failures = r.st.Iterations, r.failures()
	m.Fingerprint = fingerprintOf(r.st)
	if prefix > 0 && prefix < iters {
		m.Prefix, m.PrefixIters = &r.prefix, prefix
	}
	return m, nil
}

// spawnMember runs one panel member in a child process of this
// executable, so each campaign's peak resident set is its own and no
// campaign inherits another's heap, and waits for it to exit.
func spawnMember(w workload, seed int64, iters, prefix int) (member, error) {
	exe, err := os.Executable()
	if err != nil {
		return member{}, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
		"-iters", strconv.Itoa(iters), "-prefix", strconv.Itoa(prefix))
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return member{}, fmt.Errorf("%s campaign seed %d: child: %w", w.name, seed, err)
	}
	var m member
	if err := json.Unmarshal(out.Bytes(), &m); err != nil {
		return member{}, fmt.Errorf("%s campaign seed %d: child output: %w", w.name, seed, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return member{}, errors.New("child resource usage unavailable")
	}
	m.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	return m, nil
}

// spawnPanel runs the panel's campaigns in child processes, w.parallel
// at a time, and returns their records in panel order. The first campaign
// also keeps its fingerprint after prefix iterations (0: none).
func spawnPanel(w workload, seeds []int64, iters, prefix int) ([]member, error) {
	members := make([]member, len(seeds))
	errs := make([]error, len(seeds))
	for start := 0; start < len(seeds); start += w.parallel {
		var wg sync.WaitGroup
		for i := start; i < min(start+w.parallel, len(seeds)); i++ {
			p := 0
			if i == 0 {
				p = prefix
			}
			wg.Add(1)
			go func(i, p int) {
				defer wg.Done()
				members[i], errs[i] = spawnMember(w, seeds[i], iters, p)
			}(i, p)
		}
		wg.Wait()
	}
	return members, errors.Join(errs...)
}

// measurePanel is the untraced run: set-up probes, the measured panel
// (one child process per campaign, w.parallel at a time), then the
// reference execution. Every
// end-to-end metric is the median over the panel's campaigns, so one
// slow trajectory does not decide a run.
func measurePanel(o options, w workload, ck *checker, rep *report) error {
	seeds := w.panel(o.seed, o.seconds, o.campaigns)
	iters := w.iters
	if o.iters > 0 {
		iters = o.iters
	}
	var setups []float64
	if !w.service {
		var err error
		if setups, err = probeSetups(w, seeds); err != nil {
			return err
		}
	}
	prefix := 0
	if !w.service {
		prefix = iters / referenceShare
	}
	members, err := spawnPanel(w, seeds, iters, prefix)
	if err != nil {
		return err
	}
	var rates, cpus, gaps, rss []float64
	total := 0
	for _, m := range members {
		seed := m.Seed
		rep.attempted += int64(m.Attempted)
		rep.failed += int64(m.Failures)
		if !ck.campaign(fingerprintKey(seed, iters), m.Fingerprint) {
			rep.failed += int64(m.Iterations)
		}
		total += m.Iterations
		rates = append(rates, ratio(float64(m.Iterations), m.WallS))
		cpus = append(cpus, ratio(m.CPUS, float64(m.Iterations)/1000))
		gaps = append(gaps, m.GapP50US)
		rss = append(rss, m.PeakRSSMB)
		if w.service {
			setups = append(setups, m.SetupS)
		}
	}
	if w.service {
		err = serviceReferenceCheck(members[0], ck)
	} else {
		err = referenceCheck(w, members[0], ck)
	}
	if err != nil {
		return err
	}
	rep.metrics["iters_per_sec"] = median(rates)
	rep.metrics["cpu_s_per_kiter"] = median(cpus)
	rep.metrics["iter_p50_us"] = median(gaps)
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["peak_rss_mb"] = median(rss)
	rep.meta["campaigns"] = len(members)
	rep.meta["campaign_iters"] = iters
	rep.meta["iterations"] = total
	rep.linef("# %s seed %d: %d campaigns x %d iterations", w.name, o.seed, len(members), iters)
	rep.linef("# campaign iter/s:  %.0f", rates)
	rep.linef("# campaign s/kiter: %.4f", cpus)
	rep.linef("# campaign RSS MB:  %.1f", rss)
	return nil
}
