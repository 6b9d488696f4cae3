// Command perfbench is the repository benchmark. It drives the BVF
// pipeline through the public APIs of core, kernel, verifier, vcache,
// sanitizer, oracle and orchestrator on three named workloads, checks
// every campaign's verdicts against fingerprints, and prints either the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run)
// by name, with their units.
//
//	perfbench -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//	perfbench compare PARENT.jsonl CHANGE.jsonl
//
// Build and run it through run.sh, which keeps the build inside the
// checkout. The last line of standard output is the JSON result
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// and the line before it a {"meta": {...}} record of the host, the code
// and the inputs. compare reads files holding such line pairs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricDef names one metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"iters_per_sec", "iter/s"},
	{"cpu_s_per_kiter", "s"},
	{"iter_p50_us", "us"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// minSetupProbes is how many times a run sets up, at least, to report a
// median set-up time.
const minSetupProbes = 49

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	buildDir string
	refPath  string
	// iters and campaigns, when positive, override the per-campaign
	// iteration budget and the panel size (the self-test's short runs).
	iters     int
	campaigns int
}

// report accumulates one run's outcome.
type report struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string
	meta      map[string]any
	lines     []string
}

func newReport() *report {
	return &report{metrics: map[string]float64{}, meta: map[string]any{}}
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) linef(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 7, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 24, "measured seconds on the reference host (sizes the campaign panel)")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	fs.StringVar(&o.buildDir, "build-dir", ".bench_build", "directory for the fingerprint store and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.refPath = filepath.Join("perfbench", "reference.json")
	o.trace = trace == 1
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	res, rep, err := run(o, w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	for _, p := range rep.problems {
		fmt.Println("FAIL:", p)
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", p)
	}
	meta, err := json.Marshal(map[string]any{"meta": rep.meta})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(meta))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// run executes one benchmark run and assembles its result.
func run(o options, w workload) (result, *report, error) {
	ref, err := loadReference(o.refPath)
	if err != nil {
		return result{}, nil, err
	}
	if err := os.MkdirAll(o.buildDir, 0o755); err != nil {
		return result{}, nil, err
	}
	store, err := openRunStore(o.buildDir)
	if err != nil {
		return result{}, nil, err
	}
	ck := &checker{wl: w.name, recorded: ref.Fingerprints, store: store}
	rep := newReport()
	start := time.Now()
	switch {
	case w.service && o.trace:
		err = traceService(o, w, ck, rep)
	case o.trace:
		err = traceCampaigns(o, w, ck, rep)
	default:
		err = measurePanel(o, w, ck, rep)
	}
	if err != nil {
		return result{}, nil, err
	}
	rep.problems = append(rep.problems, ck.problems...)
	if len(ck.problems) == 0 {
		if err := store.save(); err != nil {
			return result{}, nil, err
		}
	}
	fillMeta(rep, o, w, ref, ck, time.Since(start))

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if res.Attempted < 1 {
		res.Attempted = 1
		res.Correct = false
		rep.problem("no operation attempted")
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			return result{}, nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		tag := ""
		if m, ok := ref.MetricMap[d.name]; ok {
			tag = fmt.Sprintf("  [%s; moves %s; work: %s; bypassed: %s]", m.Layer, strings.Join(m.Moves, ","), m.Work, m.Bypassed)
		}
		rep.linef("%-36s %16.6g %-7s%s", d.name, v, d.unit, tag)
	}
	return res, rep, nil
}

// checker verifies campaign fingerprints against the recorded reference
// and the checkout's run store.
type checker struct {
	wl       string
	recorded fingerprintBook
	store    *runStore
	problems []string
	// matchedRecorded / matchedStore count fingerprints compared equal.
	matchedRecorded, matchedStore int
}

// campaign checks one campaign's fingerprint and reports whether it
// passed. A fingerprint new to the store is added to it.
func (c *checker) campaign(key string, fp fingerprint) bool {
	ok := true
	if found, err := c.recorded.check(c.wl, key, fp); err != nil {
		c.problems = append(c.problems, "recorded "+err.Error())
		ok = false
	} else if found {
		c.matchedRecorded++
	}
	if found, err := c.store.book.check(c.wl, key, fp); err != nil {
		c.problems = append(c.problems, "earlier run: "+err.Error())
		ok = false
	} else if found {
		c.matchedStore++
	} else if ok {
		c.store.book.add(c.wl, key, fp)
	}
	return ok
}

// equivalent checks a run against the program's own reference
// execution of the same campaign.
func (c *checker) equivalent(what string, got, want fingerprint) bool {
	if got.equal(want) {
		return true
	}
	c.problems = append(c.problems, fmt.Sprintf("%s %s: fingerprint %s, reference %s", c.wl, what, got, want))
	return false
}

func fillMeta(rep *report, o options, w workload, ref *reference, ck *checker, elapsed time.Duration) {
	rep.meta["workload"] = w.name
	rep.meta["seed"] = o.seed
	rep.meta["trace"] = o.trace
	rep.meta["seconds"] = o.seconds
	rep.meta["held_out_seed"] = o.seed == ref.HeldOutSeed
	rep.meta["nproc"] = goruntime.NumCPU()
	rep.meta["gomaxprocs"] = goruntime.GOMAXPROCS(0)
	rep.meta["go"] = goruntime.Version()
	rep.meta["commit"] = vcsRevision()
	rep.meta["source_digest"] = sourceDigest(".")
	rep.meta["fingerprints_matched_recorded"] = ck.matchedRecorded
	rep.meta["fingerprints_matched_earlier_runs"] = ck.matchedStore
	rep.meta["wall_s"] = elapsed.Seconds()
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
