package core

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/bugs"
	"repro/internal/isa"
	"repro/internal/kernel"
)

// summaryStats is a small finished campaign with one of everything the
// summary can print: a bug, an unattributed anomaly, a contained harness
// crash, a watchdog trip, oracle claims and verdict-cache traffic.
func summaryStats() *Stats {
	st := NewStats("BVF", kernel.BPFNext)
	st.Iterations, st.Accepted, st.CorpusSize = 1000, 480, 12
	st.Coverage.HitLoc("summary:site")
	st.Bugs[BugKey{ID: bugs.Bug1NullnessProp, Indicator: kernel.Indicator1, Kind: "kasan:null-ptr-deref"}] = &BugRecord{
		ID: bugs.Bug1NullnessProp, Indicator: kernel.Indicator1, Kind: "kasan:null-ptr-deref",
		FoundAt: 42, Err: "KASAN: null-ptr-deref",
		Program: &isa.Program{Insns: []isa.Instruction{isa.Mov64Imm(isa.R0, 0), isa.Exit()}},
	}
	st.OtherAnomalies["kasan:use-after-free"] = 1
	st.CrashCount, st.ShardRestarts = 1, 1
	st.HarnessCrashes = []HarnessCrash{{Shard: 1, Iteration: 77, Value: "boom"}}
	st.WatchdogTrips[WatchdogExec] = 2
	st.SoundnessChecks = 9
	st.CacheHits, st.CacheMisses = 7, 3
	st.CachePrefixHits, st.CachePrefixMisses = 2, 1
	st.CacheInsertedBytes = 3 << 10
	return st
}

// TestWriteSummaryLineFormats pins, with and without a prefix, the lines
// the bvfd e2e drills parse (iterations and bug lines), and checks that
// every non-blank line carries the prefix.
func TestWriteSummaryLineFormats(t *testing.T) {
	for _, prefix := range []string{"", "  "} {
		var b strings.Builder
		summaryStats().WriteSummary(&b, prefix, false)
		out := b.String()
		if m := regexp.MustCompile(`iterations:\s+(\d+)`).FindStringSubmatch(out); m == nil || m[1] != "1000" {
			t.Errorf("prefix %q: iterations line = %v\n%s", prefix, m, out)
		}
		bugRE := regexp.MustCompile(`\[iter\s+(\d+)\]\s+(\S+)\s+indicator(\d+)\s+(.+)`)
		m := bugRE.FindStringSubmatch(out)
		if m == nil || m[1] != "42" || m[2] != bugs.Bug1NullnessProp.String() || m[3] != "1" || m[4] != "kasan:null-ptr-deref" {
			t.Errorf("prefix %q: bug line = %v\n%s", prefix, m, out)
		}
		if !strings.Contains(out, "\n"+prefix+"  [iter      42] ") {
			t.Errorf("prefix %q: bug line not indented under the prefix\n%s", prefix, out)
		}
		if !strings.Contains(out, prefix+"verdict cache:    7 hits / 10 lookups (70.0%), 2 prefix hits (66.7%), ~3.0 KiB inserted\n") {
			t.Errorf("prefix %q: verdict cache line missing\n%s", prefix, out)
		}
		for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
			if line != "" && !strings.HasPrefix(line, prefix) {
				t.Errorf("prefix %q: line %q lacks the prefix", prefix, line)
			}
		}
	}
}

// TestWriteSummaryIncidents: a contained crash, a watchdog trip, oracle
// claims and an unattributed anomaly each get their line, so bvfd (which
// prints the same summary) reports them too.
func TestWriteSummaryIncidents(t *testing.T) {
	var b strings.Builder
	summaryStats().WriteSummary(&b, "  ", true)
	out := b.String()
	for _, want := range []string{
		"  harness crashes:  1 contained (1 shard restarts)\n",
		"  watchdog trips:   0 verify, 2 exec\n",
		"  oracle:           9 claims checked, 0 violation(s)\n",
		"\n  unattributed anomalies: map[kasan:use-after-free:1]\n",
		"\n  harness crash (shard 1, iter 77): boom\n",
		"      KASAN: null-ptr-deref\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary lacks %q:\n%s", want, out)
		}
	}
}
