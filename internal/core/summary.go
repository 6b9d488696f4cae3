package core

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteSummary writes the campaign summary bvf and bvfd print after a
// run: the counters, the bug manifestations in discovery order, the
// unattributed anomalies and the contained harness crashes. Every
// non-blank line starts with prefix; verbose adds each bug's error and
// reproducer and each crash's program.
func (s *Stats) WriteSummary(w io.Writer, prefix string, verbose bool) {
	line := func(format string, args ...any) {
		fmt.Fprintf(w, prefix+format+"\n", args...)
	}
	listing := func(p fmt.Stringer) {
		fmt.Fprintln(w, indent(p.String(), prefix+"    "))
	}
	line("iterations:       %d", s.Iterations)
	line("accepted:         %d (%.1f%%)", s.Accepted, 100*s.AcceptanceRate())
	line("verifier coverage:%d branches", s.Coverage.Count())
	line("corpus:           %d programs", s.CorpusSize)
	if s.CrashCount > 0 || s.ShardRestarts > 0 {
		line("harness crashes:  %d contained (%d shard restarts)", s.CrashCount, s.ShardRestarts)
	}
	if t := s.WatchdogTrips; t != [numWatchdogStages]int{} {
		line("watchdog trips:   %d %v, %d %v", t[WatchdogVerify], WatchdogVerify, t[WatchdogExec], WatchdogExec)
	}
	if s.SoundnessChecks > 0 {
		line("oracle:           %d claims checked, %d violation(s)", s.SoundnessChecks, s.SoundnessViolations)
	}
	if s.MutateBatches > 0 {
		line("mutation batches: %d (%d siblings, %.1f avg batch)",
			s.MutateBatches, s.MutateSiblings, float64(s.MutateSiblings)/float64(s.MutateBatches))
	}
	if s.CacheHits+s.CacheMisses > 0 {
		line("verdict cache:    %d hits / %d lookups (%.1f%%), %d prefix hits (%.1f%%), ~%s inserted",
			s.CacheHits, s.CacheHits+s.CacheMisses, 100*s.CacheHitRate(),
			s.CachePrefixHits, 100*s.PrefixHitRate(), humanBytes(s.CacheInsertedBytes))
	}
	line("bugs found:       %d (%d verifier correctness, %d manifestations)",
		len(s.BugIDs()), s.VerifierBugsFound(), len(s.Bugs))
	fmt.Fprintln(w)

	recs := make([]*BugRecord, 0, len(s.Bugs))
	for _, rec := range s.Bugs {
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].FoundAt < recs[j].FoundAt })
	for _, rec := range recs {
		line("  [iter %7d] %-30s indicator%d  %s", rec.FoundAt, rec.ID, rec.Indicator, rec.Kind)
		if !verbose {
			continue
		}
		line("    %s", rec.Err)
		if repro := rec.Minimized; repro != nil {
			listing(repro)
		} else if rec.Program != nil {
			listing(rec.Program)
		}
	}
	if len(s.OtherAnomalies) > 0 {
		fmt.Fprintln(w)
		line("unattributed anomalies: %v", s.OtherAnomalies)
	}
	for _, cr := range s.HarnessCrashes {
		fmt.Fprintln(w)
		line("harness crash (shard %d, iter %d): %s", cr.Shard, cr.Iteration, cr.Value)
		if verbose && cr.Program != nil {
			listing(cr.Program)
		}
	}
}

// humanBytes renders a byte count with a binary unit suffix.
func humanBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// indent prefixes every line of s with pre.
func indent(s, pre string) string {
	return pre + strings.ReplaceAll(s, "\n", "\n"+pre)
}
