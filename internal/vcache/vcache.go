// Package vcache implements the campaign-side verdict cache behind
// verifier.Cache: a bounded FIFO store of memoized whole-program verdicts
// and linear-prefix boundary snapshots, shareable across the shards of a
// parallel campaign.
//
// Sharing model. A single-shard campaign uses a *Store directly: inserts
// are immediate and the single goroutine keeps lookup order deterministic.
// A parallel campaign gives every shard a *Shard view of one shared Store:
// during a round a shard reads the frozen global store plus its own
// pending inserts, and the coordinator publishes all pending entries at
// the sync barrier in shard-index order (single-writer insert). Mid-round
// cross-shard visibility is deliberately sacrificed so a round's lookups
// never depend on sibling-shard timing.
//
// Collision safety is inherited from the verifier contract: the fingerprint
// is only the index, every entry carries canonical bytes, and lookups
// compare them exactly — a collision is a miss, never a wrong verdict.
package vcache

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/isa"
	"repro/internal/verifier"
)

// DefaultCapacity bounds entries (verdicts and prefixes separately) when
// NewStore is given no explicit capacity. At a few hundred bytes per
// verdict this keeps the steady-state cache in the tens of megabytes.
const DefaultCapacity = 1 << 16

// Counters is a point-in-time snapshot of cache effectiveness counters.
// Campaigns pull start/end deltas into core.Stats.
type Counters struct {
	Hits          int64
	Misses        int64
	PrefixHits    int64
	PrefixMisses  int64
	InsertedBytes int64
}

// Store is a bounded FIFO verdict cache. It is safe for concurrent use;
// a parallel campaign should nevertheless route shard inserts through
// Shard views so lookup results stay deterministic within a round.
type Store struct {
	mu       sync.RWMutex
	capacity int
	entries  map[uint64]*verifier.CachedVerdict
	order    []uint64
	prefixes map[uint64]*verifier.PrefixSnapshot
	porder   []uint64
	// seen is the prefix-recurrence filter behind NotePrefix: fingerprints
	// sighted at least once. Bounded like the entry tables; when full it is
	// reset wholesale (generation clearing), which only delays the second
	// sight of a prefix — a missed capture, never a wrong verdict.
	seen map[uint64]struct{}

	hits          atomic.Int64
	misses        atomic.Int64
	prefixHits    atomic.Int64
	prefixMisses  atomic.Int64
	insertedBytes atomic.Int64
}

// NewStore returns an empty store holding at most capacity verdicts (and
// as many prefix snapshots); capacity <= 0 selects DefaultCapacity.
func NewStore(capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Store{
		capacity: capacity,
		entries:  make(map[uint64]*verifier.CachedVerdict),
		prefixes: make(map[uint64]*verifier.PrefixSnapshot),
		seen:     make(map[uint64]struct{}),
	}
}

var _ verifier.Cache = (*Store)(nil)

// Lookup implements verifier.Cache.
func (s *Store) Lookup(fp uint64, p *isa.Program) *verifier.CachedVerdict {
	v := s.lookupNoCount(fp, p)
	if v != nil {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return v
}

func (s *Store) lookupNoCount(fp uint64, p *isa.Program) *verifier.CachedVerdict {
	s.mu.RLock()
	v := s.entries[fp]
	s.mu.RUnlock()
	if v != nil && verifier.MatchCanonical(v.Prog, p) {
		return v
	}
	return nil
}

// Insert implements verifier.Cache. The first entry for a fingerprint
// wins; with exact canonical-byte keying a duplicate insert carries an
// identical verdict, so keeping the incumbent preserves FIFO age.
func (s *Store) Insert(fp uint64, v *verifier.CachedVerdict) {
	s.mu.Lock()
	s.insertLocked(fp, v)
	s.mu.Unlock()
}

func (s *Store) insertLocked(fp uint64, v *verifier.CachedVerdict) {
	if _, ok := s.entries[fp]; ok {
		return
	}
	if len(s.order) >= s.capacity {
		evict := s.order[0]
		s.order = s.order[1:]
		delete(s.entries, evict)
	}
	s.entries[fp] = v
	s.order = append(s.order, fp)
	s.insertedBytes.Add(int64(v.EstimateBytes()))
}

// LookupPrefix implements verifier.Cache.
func (s *Store) LookupPrefix(fp uint64, canon []byte) *verifier.PrefixSnapshot {
	p := s.lookupPrefixNoCount(fp, canon)
	if p != nil {
		s.prefixHits.Add(1)
	} else {
		s.prefixMisses.Add(1)
	}
	return p
}

func (s *Store) lookupPrefixNoCount(fp uint64, canon []byte) *verifier.PrefixSnapshot {
	s.mu.RLock()
	p := s.prefixes[fp]
	s.mu.RUnlock()
	if p != nil && bytes.Equal(p.Canon, canon) {
		return p
	}
	return nil
}

// InsertPrefix implements verifier.Cache.
func (s *Store) InsertPrefix(fp uint64, p *verifier.PrefixSnapshot) {
	s.mu.Lock()
	s.insertPrefixLocked(fp, p)
	s.mu.Unlock()
}

func (s *Store) insertPrefixLocked(fp uint64, p *verifier.PrefixSnapshot) {
	if _, ok := s.prefixes[fp]; ok {
		return
	}
	if len(s.porder) >= s.capacity {
		evict := s.porder[0]
		s.porder = s.porder[1:]
		delete(s.prefixes, evict)
	}
	s.prefixes[fp] = p
	s.porder = append(s.porder, fp)
	s.insertedBytes.Add(int64(p.EstimateBytes()))
}

// NotePrefix implements verifier.Cache: it reports whether fp was sighted
// before, recording the sighting either way.
func (s *Store) NotePrefix(fp uint64) bool {
	s.mu.Lock()
	seen := s.notePrefixLocked(fp)
	s.mu.Unlock()
	return seen
}

func (s *Store) notePrefixLocked(fp uint64) bool {
	if _, ok := s.seen[fp]; ok {
		return true
	}
	// The filter is 8 bytes per fingerprint; 4x the entry capacity keeps
	// it a rounding error next to the snapshots it gates. Overflow resets
	// the whole generation.
	if len(s.seen) >= s.capacity*4 {
		s.seen = make(map[uint64]struct{}, s.capacity)
	}
	s.seen[fp] = struct{}{}
	return false
}

// Len returns the number of cached verdicts.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// PrefixLen returns the number of cached prefix snapshots.
func (s *Store) PrefixLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.prefixes)
}

// CounterSnapshot returns the counters of direct Store use: lookups made
// on the Store itself and every insert, including those Shard views
// publish. Shard lookups count only in their Shard's CounterSnapshot.
func (s *Store) CounterSnapshot() Counters {
	return Counters{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		PrefixHits:    s.prefixHits.Load(),
		PrefixMisses:  s.prefixMisses.Load(),
		InsertedBytes: s.insertedBytes.Load(),
	}
}

// Serialized is the gob-portable form of a store's verdict entries, in
// FIFO order. Prefix snapshots are not serialized: they hold live
// *maps.Map pointers inside abstract register states and are rebuilt
// cheaply after a resume.
type Serialized struct {
	Entries []SerializedEntry
}

// SerializedEntry pairs a fingerprint with its memoized verdict.
type SerializedEntry struct {
	FP uint64
	V  *verifier.CachedVerdict
}

// Export snapshots the verdict entries for a checkpoint.
func (s *Store) Export() *Serialized {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := &Serialized{Entries: make([]SerializedEntry, 0, len(s.order))}
	for _, fp := range s.order {
		out.Entries = append(out.Entries, SerializedEntry{FP: fp, V: s.entries[fp].Persisted()})
	}
	return out
}

// Import replays a checkpointed snapshot into the store, preserving FIFO
// order. Entries beyond capacity age out exactly as live inserts would.
// It imports nothing and fails when an entry's coverage profile does not
// fit in the coverage site registry.
func (s *Store) Import(ser *Serialized) error {
	if ser == nil {
		return nil
	}
	restored := make([]SerializedEntry, 0, len(ser.Entries))
	for _, ent := range ser.Entries {
		if ent.V == nil {
			continue
		}
		v, err := ent.V.Restored()
		if err != nil {
			return fmt.Errorf("vcache: import entry %#x: %w", ent.FP, err)
		}
		restored = append(restored, SerializedEntry{FP: ent.FP, V: v})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ent := range restored {
		s.insertLocked(ent.FP, ent.V)
	}
	return nil
}

// Shard is one shard's view of a shared Store: reads see the frozen
// global plus the shard's own pending inserts; writes stay pending until
// the coordinator calls Publish at the round barrier. A Shard is NOT safe
// for concurrent use — it belongs to its shard goroutine, and Publish may
// only run while that goroutine is parked at the barrier.
type Shard struct {
	store *Store

	pending map[uint64]*verifier.CachedVerdict
	order   []uint64

	pendingPrefix map[uint64]*verifier.PrefixSnapshot
	porder        []uint64

	// pendingSeen buffers prefix sightings until the round barrier, like
	// the entry tables: mid-round sightings by sibling shards must not be
	// visible, or a round's capture decisions would depend on shard timing.
	pendingSeen map[uint64]struct{}

	// local counts this shard's own lookups/inserts; Stats pulls
	// per-shard deltas from it. Lookups touch no Store counter, so a
	// shard shares no mutable state mid-round.
	local Counters
}

var _ verifier.Cache = (*Shard)(nil)

// NewShard returns a view of s for one shard.
func (s *Store) NewShard() *Shard {
	return &Shard{
		store:         s,
		pending:       make(map[uint64]*verifier.CachedVerdict),
		pendingPrefix: make(map[uint64]*verifier.PrefixSnapshot),
		pendingSeen:   make(map[uint64]struct{}),
	}
}

// Lookup implements verifier.Cache: pending first, then the shared store.
func (sh *Shard) Lookup(fp uint64, p *isa.Program) *verifier.CachedVerdict {
	v := sh.pending[fp]
	if v == nil || !verifier.MatchCanonical(v.Prog, p) {
		v = sh.store.lookupNoCount(fp, p)
	}
	if v != nil {
		sh.local.Hits++
	} else {
		sh.local.Misses++
	}
	return v
}

// Insert implements verifier.Cache by queueing the entry for Publish.
func (sh *Shard) Insert(fp uint64, v *verifier.CachedVerdict) {
	if _, ok := sh.pending[fp]; ok {
		return
	}
	sh.pending[fp] = v
	sh.order = append(sh.order, fp)
	sh.local.InsertedBytes += int64(v.EstimateBytes())
}

// LookupPrefix implements verifier.Cache.
func (sh *Shard) LookupPrefix(fp uint64, canon []byte) *verifier.PrefixSnapshot {
	p := sh.pendingPrefix[fp]
	if p == nil || !bytes.Equal(p.Canon, canon) {
		p = sh.store.lookupPrefixNoCount(fp, canon)
	}
	if p != nil {
		sh.local.PrefixHits++
	} else {
		sh.local.PrefixMisses++
	}
	return p
}

// InsertPrefix implements verifier.Cache.
func (sh *Shard) InsertPrefix(fp uint64, p *verifier.PrefixSnapshot) {
	if _, ok := sh.pendingPrefix[fp]; ok {
		return
	}
	sh.pendingPrefix[fp] = p
	sh.porder = append(sh.porder, fp)
	sh.local.InsertedBytes += int64(p.EstimateBytes())
}

// NotePrefix implements verifier.Cache: own pending sightings first, then
// the frozen shared filter. A first sighting stays pending until Publish.
func (sh *Shard) NotePrefix(fp uint64) bool {
	if _, ok := sh.pendingSeen[fp]; ok {
		return true
	}
	sh.store.mu.RLock()
	_, ok := sh.store.seen[fp]
	sh.store.mu.RUnlock()
	if ok {
		return true
	}
	sh.pendingSeen[fp] = struct{}{}
	return false
}

// Publish folds the shard's pending inserts into the shared store in
// insertion order and clears the pending set. The coordinator calls it for
// every shard, in shard-index order, at the round barrier — the
// single-writer discipline that keeps the global FIFO deterministic.
func (sh *Shard) Publish() (published int) {
	if len(sh.order) == 0 && len(sh.porder) == 0 && len(sh.pendingSeen) == 0 {
		return 0
	}
	sh.store.mu.Lock()
	for _, fp := range sh.order {
		sh.store.insertLocked(fp, sh.pending[fp])
	}
	for _, fp := range sh.porder {
		sh.store.insertPrefixLocked(fp, sh.pendingPrefix[fp])
	}
	for fp := range sh.pendingSeen {
		sh.store.notePrefixLocked(fp)
	}
	sh.store.mu.Unlock()
	published = len(sh.order) + len(sh.porder)
	for fp := range sh.pending {
		delete(sh.pending, fp)
	}
	for fp := range sh.pendingPrefix {
		delete(sh.pendingPrefix, fp)
	}
	for fp := range sh.pendingSeen {
		delete(sh.pendingSeen, fp)
	}
	sh.order = sh.order[:0]
	sh.porder = sh.porder[:0]
	return published
}

// CounterSnapshot returns this shard's own counters (not the store-wide
// ones), so per-shard Stats deltas sum to the global totals under Merge.
func (sh *Shard) CounterSnapshot() Counters {
	return sh.local
}
