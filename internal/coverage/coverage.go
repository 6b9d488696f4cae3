// Package coverage provides kcov-style branch coverage collection for the
// verifier model. Every decision site in the verifier reports a stable site
// identifier; the map records which sites a verification run exercised, and
// campaigns merge per-run maps to track global progress, exactly as the
// paper's Figure 6 / Table 3 experiments do with kcov over the eBPF
// subsystem.
package coverage

import (
	"cmp"
	"encoding/binary"
	"errors"
	"slices"
	"sync"
)

// Site is a stable identifier for one branch site in the instrumented code.
type Site uint64

// SiteCount is one covered site with its hit count, the unit of
// deterministic coverage replay: a verdict cache stores the exact
// (site, count) profile a verification produced and AddSites replays it
// on a hit, so cached and scratch runs build bit-identical maps.
type SiteCount struct {
	Site  Site
	Count uint64
}

// FNV-1a parameters, inlined so SiteOf never allocates a hash.Hash64.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// SiteOf derives a Site from a static location string such as
// "check_alu:ptr+scalar". It is an allocation-free FNV-1a over the
// location bytes (bit-identical to hash/fnv's New64a), so hot
// instrumentation points may call it per hit, though precomputing the
// Site at package init is cheaper still.
func SiteOf(loc string) Site {
	h := uint64(fnvOffset64)
	for i := 0; i < len(loc); i++ {
		h ^= uint64(loc[i])
		h *= fnvPrime64
	}
	return Site(h)
}

// Map records the set of covered sites. A Map is safe for concurrent use.
type Map struct {
	mu      sync.RWMutex
	counts  []uint64 // hit counts indexed by ID; a site is covered iff its count is nonzero
	covered int      // number of nonzero counts

	// Sorted-snapshot cache: Snapshot and Signature are called on every
	// reporter tick and corpus admission, but the *site set* only changes
	// when a hit or merge covers a previously unseen site. The cache holds
	// the covered IDs in Site order and is invalidated on insertion only —
	// count bumps on known sites keep it.
	snapCache []ID
	sigCache  uint64
	sigValid  bool
}

// NewMap returns an empty coverage map.
func NewMap() *Map {
	return &Map{}
}

// Hit records one execution of the given site.
func (m *Map) Hit(s Site) {
	if m == nil {
		return
	}
	id := InternSite(s)
	m.mu.Lock()
	m.addLocked(id, 1)
	m.mu.Unlock()
}

// addLocked adds n hits of id and reports whether id was new to m; the
// caller holds the write lock.
func (m *Map) addLocked(id ID, n uint64) bool {
	m.counts = growCounts(m.counts, id)
	c := &m.counts[id]
	fresh := *c == 0 && n != 0
	*c += n
	if fresh {
		m.covered++
		m.invalidateLocked()
	}
	return fresh
}

// invalidateLocked drops the sorted-snapshot cache; the caller holds the
// write lock.
func (m *Map) invalidateLocked() {
	m.snapCache = nil
	m.sigValid = false
}

// HitLoc records one execution of the site named by loc.
func (m *Map) HitLoc(loc string) { m.Hit(SiteOf(loc)) }

// Count returns the number of distinct covered sites.
func (m *Map) Count() int {
	if m == nil {
		return 0
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.covered
}

// Covered reports whether s has been hit at least once.
func (m *Map) Covered(s Site) bool { return m.Hits(s) != 0 }

// Hits returns the hit count of s.
func (m *Map) Hits(s Site) uint64 {
	if m == nil {
		return 0
	}
	id, ok := reg.lookup(s)
	if !ok {
		return 0
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if int(id) >= len(m.counts) {
		return 0
	}
	return m.counts[id]
}

// Merge adds every site of other into m and returns the number of sites
// that were new to m. Fuzzing engines use the return value as the "new
// coverage" feedback signal.
//
// Merge never holds both maps' locks at once: other is snapshotted under
// its read lock first, then folded into m under m's write lock. Two
// goroutines may therefore merge the same pair of maps in opposite
// directions concurrently without deadlocking. A self-merge is a no-op.
func (m *Map) Merge(other *Map) int {
	if m == nil || other == nil || m == other {
		return 0
	}
	snap := other.snapshotCounts()
	m.mu.Lock()
	defer m.mu.Unlock()
	fresh := 0
	for id, n := range snap {
		if m.addLocked(ID(id), n) {
			fresh++
		}
	}
	return fresh
}

// Diff returns the number of sites covered by other but not by m, without
// modifying either map. Like Merge, it never holds both locks at once.
func (m *Map) Diff(other *Map) int {
	if m == nil || other == nil || m == other {
		return 0
	}
	snap := other.snapshotCounts()
	m.mu.RLock()
	defer m.mu.RUnlock()
	fresh := 0
	for id, n := range snap {
		if n != 0 && (id >= len(m.counts) || m.counts[id] == 0) {
			fresh++
		}
	}
	return fresh
}

// snapshotCounts copies the dense counts under the read lock.
func (m *Map) snapshotCounts() []uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return slices.Clone(m.counts)
}

// AddSites folds a recorded profile into m under one lock acquisition and
// returns how many sites were new to m — exactly the effect of replaying
// every hit individually. Verdict-cache hits use it to reproduce a
// memoized verification's coverage without re-verifying.
func (m *Map) AddSites(p []IDCount) int {
	if m == nil || len(p) == 0 {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	fresh := 0
	for _, r := range p {
		if m.addLocked(r.ID, uint64(r.Count)) {
			fresh++
		}
	}
	return fresh
}

// Reset clears all recorded coverage.
func (m *Map) Reset() {
	m.mu.Lock()
	clear(m.counts)
	m.covered = 0
	m.invalidateLocked()
	m.mu.Unlock()
}

// Snapshot returns the covered sites in deterministic (sorted) order. The
// sort is cached until the next site insertion; the returned slice is the
// caller's to keep.
func (m *Map) Snapshot() []Site {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := m.sortedLocked()
	out := make([]Site, len(ids))
	for i, id := range ids {
		out[i] = id.Site()
	}
	return out
}

// sortedLocked returns (building if needed) the cached covered-ID list in
// Site order; the caller holds the write lock and must not retain the
// slice outside it.
func (m *Map) sortedLocked() []ID {
	if m.snapCache == nil {
		out := make([]ID, 0, m.covered)
		for id, n := range m.counts {
			if n != 0 {
				out = append(out, ID(id))
			}
		}
		sites := reg.view.Load().sites
		slices.SortFunc(out, func(a, b ID) int { return cmp.Compare(sites[a], sites[b]) })
		m.snapCache = out
	}
	return m.snapCache
}

// MarshalBinary serializes the map as a deterministic (sorted) sequence of
// little-endian site/count pairs, so checkpointed campaigns can persist
// coverage. It implements encoding.BinaryMarshaler, which encoding/gob
// picks up automatically.
func (m *Map) MarshalBinary() ([]byte, error) {
	if m == nil {
		return nil, nil
	}
	// One write lock for the whole walk: taking Snapshot() first and
	// re-locking to read the counts would let a concurrent Hit/Merge land
	// between the two, serializing a site list from one instant with
	// counts from another (a torn snapshot under checkpoint-while-running).
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := m.sortedLocked()
	out := make([]byte, 0, 8+16*len(ids))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(ids)))
	for _, id := range ids {
		out = binary.LittleEndian.AppendUint64(out, uint64(id.Site()))
		out = binary.LittleEndian.AppendUint64(out, m.counts[id])
	}
	return out, nil
}

// UnmarshalBinary restores a map serialized by MarshalBinary, replacing any
// existing contents. Input whose unknown sites do not fit in the site
// registry is refused with ErrRegistryFull and leaves both the map and
// the registry unchanged; so is a zero hit count, which MarshalBinary
// never writes.
func (m *Map) UnmarshalBinary(data []byte) error {
	var counts []uint64
	covered := 0
	if len(data) > 0 {
		if len(data) < 8 {
			return errors.New("coverage: truncated serialized map")
		}
		n := binary.LittleEndian.Uint64(data)
		if n > uint64(len(data)/16) || len(data) != 8+16*int(n) {
			return errors.New("coverage: serialized map length mismatch")
		}
		sites := make([]Site, n)
		hits := make([]uint64, n)
		for i := range sites {
			rec := data[8+16*i:]
			sites[i] = Site(binary.LittleEndian.Uint64(rec))
			if hits[i] = binary.LittleEndian.Uint64(rec[8:]); hits[i] == 0 {
				return errors.New("coverage: serialized map has a zero hit count")
			}
		}
		ids := make([]ID, n)
		if err := reg.intern(sites, ids); err != nil {
			return err
		}
		for i, id := range ids {
			counts = growCounts(counts, id)
			if counts[id] == 0 {
				covered++
			}
			counts[id] = hits[i]
		}
	}
	m.mu.Lock()
	m.counts, m.covered = counts, covered
	m.invalidateLocked()
	m.mu.Unlock()
	return nil
}

// Signature returns a 64-bit digest of the covered-site set, used by
// corpora to deduplicate inputs by coverage profile. Like Snapshot it is
// cached until the next site insertion.
func (m *Map) Signature() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.sigValid {
		return m.sigCache
	}
	h := uint64(fnvOffset64)
	for _, id := range m.sortedLocked() {
		v := uint64(id.Site())
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * i) & 0xff
			h *= fnvPrime64
		}
	}
	m.sigCache = h
	m.sigValid = true
	return h
}
