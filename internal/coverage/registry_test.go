package coverage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
)

// syntheticMap serializes n never-interned sites in MarshalBinary's
// format, the shape of a hostile or corrupt coverage payload.
func syntheticMap(n int) []byte {
	out := binary.LittleEndian.AppendUint64(nil, uint64(n))
	for i := 0; i < n; i++ {
		out = binary.LittleEndian.AppendUint64(out, uint64(SiteOf(fmt.Sprintf("synthetic:%d", i))))
		out = binary.LittleEndian.AppendUint64(out, 1)
	}
	return out
}

// TestUnmarshalPastCapRefused: a serialized map with more unknown sites
// than the registry can hold is refused, and neither the map nor the
// registry changes.
func TestUnmarshalPastCapRefused(t *testing.T) {
	m := NewMap()
	m.HitLoc("kept")
	sig := m.Signature()
	before := Registered()
	err := m.UnmarshalBinary(syntheticMap(MaxSites + 1))
	if !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("UnmarshalBinary past the cap: err = %v, want ErrRegistryFull", err)
	}
	if got := Registered(); got != before {
		t.Errorf("registry grew from %d to %d sites", before, got)
	}
	if m.Count() != 1 || m.Signature() != sig {
		t.Error("refused UnmarshalBinary changed the map")
	}
	if _, err := Compact([]SiteCount{{Site: SiteOf("kept"), Count: 1}}); err != nil {
		t.Errorf("Compact of a known site: %v", err)
	}
}

// TestRegistryLimit: a batch that does not fit registers nothing; a
// batch that fits registers each new site once, in order.
func TestRegistryLimit(t *testing.T) {
	r := newRegistry(4)
	ids := make([]ID, 3)
	if err := r.intern([]Site{10, 11, 10}, ids); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ids, []ID{0, 1, 0}) || r.size() != 2 {
		t.Fatalf("ids %v, size %d", ids, r.size())
	}
	if err := r.intern([]Site{12, 13, 14}, ids); !errors.Is(err, ErrRegistryFull) {
		t.Fatalf("over-limit batch: err = %v", err)
	}
	if r.size() != 2 {
		t.Fatalf("refused batch registered sites: size %d", r.size())
	}
	if _, ok := r.lookup(12); ok {
		t.Fatal("refused batch is visible to lookups")
	}
	if err := r.intern([]Site{12, 13}, ids[:2]); err != nil || r.size() != 4 {
		t.Fatalf("fitting batch: err %v, size %d", err, r.size())
	}
}

// TestZeroHitCountRefused: MarshalBinary never writes a zero count, so
// UnmarshalBinary treats one as corruption.
func TestZeroHitCountRefused(t *testing.T) {
	blob := binary.LittleEndian.AppendUint64(nil, 1)
	blob = binary.LittleEndian.AppendUint64(blob, uint64(SiteOf("zero")))
	blob = binary.LittleEndian.AppendUint64(blob, 0)
	if err := NewMap().UnmarshalBinary(blob); err == nil {
		t.Fatal("zero hit count accepted")
	}
}

// TestSplitCountRoundTrip: a count past MaxUint32 survives the compact
// in-memory form exactly.
func TestSplitCountRoundTrip(t *testing.T) {
	s := SiteOf("split")
	const n = 3*math.MaxUint32 + 5
	p, err := Compact([]SiteCount{{Site: s, Count: n}})
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 4 {
		t.Fatalf("profile has %d runs, want 4", len(p))
	}
	if got := Expand(p); len(got) != 1 || got[0] != (SiteCount{Site: s, Count: n}) {
		t.Fatalf("Expand = %v", got)
	}
	m := NewMap()
	m.AddSites(p)
	if m.Hits(s) != n {
		t.Fatalf("Hits = %d, want %d", m.Hits(s), uint64(n))
	}
}
