package coverage

// Local is an unsynchronized per-run coverage recorder. One verification
// (or one campaign iteration) records every hit into its Local without
// touching a lock, then folds the whole batch into the shared Map with a
// single FlushTo — one lock acquisition instead of one per instrumented
// site. A Local is NOT safe for concurrent use; ownership follows the run
// that records into it.
//
// The recorder is a counter array indexed by ID plus the list of IDs hit
// so far, so a hit is an index and an increment, and a flush walks only
// the touched sites and clears them in place.
type Local struct {
	counts  []uint64 // hit counts indexed by ID
	touched []ID     // IDs with a nonzero count, in first-hit order
}

// NewLocal returns an empty local recorder sized for every site
// registered so far.
func NewLocal() *Local {
	return &Local{counts: make([]uint64, reg.size()), touched: make([]ID, 0, 128)}
}

// Hit records one execution of the given site.
func (l *Local) Hit(id ID) {
	if l == nil {
		return
	}
	if int(id) < len(l.counts) && l.counts[id] != 0 {
		l.counts[id]++
		return
	}
	l.add(id, 1)
}

// add records n hits of id, growing the array and noting a first hit.
func (l *Local) add(id ID, n uint64) {
	if n == 0 {
		return
	}
	l.counts = growCounts(l.counts, id)
	if l.counts[id] == 0 {
		l.touched = append(l.touched, id)
	}
	l.counts[id] += n
}

// HitLoc records one execution of the site named by loc.
func (l *Local) HitLoc(loc string) {
	if l != nil {
		l.Hit(Intern(loc))
	}
}

// Len returns the number of distinct recorded sites.
func (l *Local) Len() int {
	if l == nil {
		return 0
	}
	return len(l.touched)
}

// Export returns the recorded profile in first-hit order without clearing
// the recorder. Verdict caches capture it at the end of a verification so
// a later hit can replay the exact profile with Map.AddSites; replay is
// order-independent, and Expand sorts by Site where order matters.
func (l *Local) Export() []IDCount {
	if l == nil || len(l.touched) == 0 {
		return nil
	}
	out := make([]IDCount, 0, len(l.touched))
	for _, id := range l.touched {
		out = appendRuns(out, id, l.counts[id])
	}
	return out
}

// AddSites replays a recorded profile into the local recorder, as if
// every hit had been recorded individually. Prefix-snapshot restores use
// it to rebuild the coverage a resumed verification's skipped prefix
// would have produced.
func (l *Local) AddSites(p []IDCount) {
	if l == nil {
		return
	}
	for _, r := range p {
		l.add(r.ID, uint64(r.Count))
	}
}

// FlushTo folds every recorded hit into m under one lock acquisition and
// clears the recorder for reuse. It returns the number of sites that were
// new to m (the fuzzing "new coverage" feedback signal), exactly as if
// every hit had been recorded on m directly.
func (l *Local) FlushTo(m *Map) int {
	if l == nil || len(l.touched) == 0 {
		return 0
	}
	fresh := 0
	if m != nil {
		m.mu.Lock()
		for _, id := range l.touched {
			if m.addLocked(id, l.counts[id]) {
				fresh++
			}
			l.counts[id] = 0
		}
		m.mu.Unlock()
	} else {
		for _, id := range l.touched {
			l.counts[id] = 0
		}
	}
	l.touched = l.touched[:0]
	return fresh
}
