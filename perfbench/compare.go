package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runRecord is one benchmark run read back from its captured output.
type runRecord struct {
	workload string
	seed     int64
	res      result
}

// verdictRow is one (workload, metric) comparison.
type verdictRow struct {
	workload, metric, unit string
	parent, change         []float64
	wins, pairs            int
	verdict                string
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	spec := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-benchmark BENCHMARK.json] PARENT CHANGE (files or directories of captured run output)")
		return 2
	}
	var bs benchSpec
	data, err := os.ReadFile(*spec)
	if err == nil {
		err = json.Unmarshal(data, &bs)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	parent, err := readRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	change, err := readRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	rows := compareRuns(bs, parent, change)
	printRows(rows)
	for _, r := range rows {
		if r.verdict == "worse" {
			return 1
		}
	}
	return 0
}

// readRuns collects the untraced runs in path (a file, or every regular
// file in a directory): each result line paired with the meta line
// before it.
func readRuns(path string) ([]runRecord, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if e.Type().IsRegular() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	var runs []runRecord
	for _, f := range files {
		rs, err := readRunFile(f)
		if err != nil {
			return nil, err
		}
		runs = append(runs, rs...)
	}
	return runs, nil
}

func readRunFile(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runRecord
	var meta *struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Trace    bool   `json:"trace"`
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Meta    json.RawMessage `json:"meta"`
			Metrics json.RawMessage `json:"metrics"`
		}
		if json.Unmarshal(line, &probe) != nil {
			continue
		}
		switch {
		case probe.Meta != nil:
			meta = nil
			if err := json.Unmarshal(probe.Meta, &meta); err != nil {
				return nil, fmt.Errorf("%s: meta: %w", path, err)
			}
		case probe.Metrics != nil && meta != nil:
			var res result
			if err := json.Unmarshal(line, &res); err != nil {
				return nil, fmt.Errorf("%s: result: %w", path, err)
			}
			if !meta.Trace {
				runs = append(runs, runRecord{workload: meta.Workload, seed: meta.Seed, res: res})
			}
			meta = nil
		}
	}
	return runs, sc.Err()
}

// compareRuns judges every end-to-end metric of every workload present
// on both sides, plus failed_frac, by the rules of the benchmark:
//
//   - improved: the change wins at least nine tenths of the seed-paired
//     runs and the medians differ by more than the parent's own
//     interquartile distance;
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound;
//   - unresolved: the parent's spread (IQR over median) exceeds the bound
//     and not every change run reads better than every parent run;
//   - no worse: otherwise.
//
// failed_frac is judged on the pooled failures of each side (see
// judgeFailures).
func compareRuns(bs benchSpec, parent, change []runRecord) []verdictRow {
	workloadsSeen := map[string]bool{}
	for _, r := range parent {
		workloadsSeen[r.workload] = true
	}
	var names []string
	for w := range workloadsSeen {
		names = append(names, w)
	}
	sort.Strings(names)
	var rows []verdictRow
	for _, wl := range names {
		p, c := pick(parent, wl), pick(change, wl)
		if len(c) == 0 {
			continue
		}
		for _, m := range bs.EndToEnd {
			get := func(r runRecord) float64 { return r.res.Metrics[m.Name].Value }
			rows = append(rows, judge(wl, m.Name, m.Unit, m.Better == "lower", m.Bound, p, c, get))
		}
		rows = append(rows, judgeFailures(wl, p, c))
	}
	return rows
}

func pick(runs []runRecord, wl string) []runRecord {
	var out []runRecord
	for _, r := range runs {
		if r.workload == wl {
			out = append(out, r)
		}
	}
	return out
}

func judge(wl, metric, unit string, lowerBetter bool, bound float64, p, c []runRecord, get func(runRecord) float64) verdictRow {
	row := verdictRow{workload: wl, metric: metric, unit: unit}
	bySeed := map[int64]float64{}
	for _, r := range p {
		v := get(r)
		row.parent = append(row.parent, v)
		if _, ok := bySeed[r.seed]; !ok {
			bySeed[r.seed] = v
		}
	}
	better := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	for _, r := range c {
		v := get(r)
		row.change = append(row.change, v)
		if pv, ok := bySeed[r.seed]; ok {
			row.pairs++
			if better(v, pv) {
				row.wins++
			}
			delete(bySeed, r.seed)
		}
	}
	mp, mc := median(row.parent), median(row.change)
	q1, q3 := quartiles(row.parent)
	worseBy := ratio(mc-mp, math.Abs(mp))
	if !lowerBetter {
		worseBy = -worseBy
	}
	spread := ratio(q3-q1, math.Abs(mp))
	allBetter := true
	for _, cv := range row.change {
		for _, pv := range row.parent {
			if !better(cv, pv) {
				allBetter = false
			}
		}
	}
	switch {
	case row.pairs > 0 && float64(row.wins) >= 0.9*float64(row.pairs) && math.Abs(mc-mp) > q3-q1 && better(mc, mp):
		row.verdict = "improved"
	case worseBy > bound:
		row.verdict = "worse"
	case spread > bound && !allBetter:
		row.verdict = "unresolved"
	default:
		row.verdict = "no worse"
	}
	return row
}

// judgeFailures compares failed operations over operations attempted,
// pooled over each side's runs (a run that failed its checks counts as
// failing everything it attempted). Its bound is zero: the change is
// worse when its pooled share is higher, since a single failing run must
// not hide behind a median.
func judgeFailures(wl string, p, c []runRecord) verdictRow {
	row := verdictRow{workload: wl, metric: "failed_frac", unit: "ratio"}
	pooled := func(runs []runRecord, per *[]float64) float64 {
		var failed, attempted float64
		for _, r := range runs {
			f := float64(r.res.Failed)
			if !r.res.Correct {
				f = float64(r.res.Attempted)
			}
			failed += f
			attempted += float64(r.res.Attempted)
			*per = append(*per, ratio(f, float64(r.res.Attempted)))
		}
		return ratio(failed, attempted)
	}
	fp, fc := pooled(p, &row.parent), pooled(c, &row.change)
	row.verdict = "no worse"
	switch {
	case fc > fp:
		row.verdict = "worse"
	case fc < fp:
		row.verdict = "improved"
	}
	return row
}

func printRows(rows []verdictRow) {
	fmt.Printf("%-18s %-16s %-8s %-34s %-34s %-9s %s\n", "workload", "metric", "unit",
		"parent median [q1, q3] (n)", "change median [q1, q3] (n)", "wins", "verdict")
	side := func(xs []float64) string {
		q1, q3 := quartiles(xs)
		return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(xs), q1, q3, len(xs))
	}
	for _, r := range rows {
		fmt.Printf("%-18s %-16s %-8s %-34s %-34s %-9s %s\n", r.workload, r.metric, r.unit,
			side(r.parent), side(r.change), fmt.Sprintf("%d/%d", r.wins, r.pairs), r.verdict)
	}
}
