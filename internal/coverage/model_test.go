package coverage

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestFormatGolden pins the persisted coverage format: the MarshalBinary
// bytes and the Signature of a fixed 20-site map, as written before sites
// were interned to dense IDs. Checkpoints, cached-verdict exports and the
// gob-encoded campaign statistics all carry these bytes.
func TestFormatGolden(t *testing.T) {
	m := NewMap()
	for i := 0; i < 20; i++ {
		for j := 0; j <= i*7%5; j++ {
			m.HitLoc(fmt.Sprintf("golden:%02d", i))
		}
	}
	raw, err := os.ReadFile("testdata/map20.hex")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("MarshalBinary drifted:\n got %x\nwant %x", got, want)
	}
	if sig := m.Signature(); sig != 0xd436f37fb8b1a51b {
		t.Errorf("Signature = %#x, want 0xd436f37fb8b1a51b", sig)
	}
	restored := NewMap()
	if err := restored.UnmarshalBinary(want); err != nil {
		t.Fatal(err)
	}
	if again, _ := restored.MarshalBinary(); !bytes.Equal(again, want) {
		t.Error("golden bytes do not round-trip")
	}
}

// model is the reference coverage map the fuzz target checks Local and
// Map against: a plain Site-keyed count map.
type model map[Site]uint64

func (md model) add(s Site, n uint64) bool {
	_, known := md[s]
	if n == 0 {
		return false
	}
	md[s] += n
	return !known
}

func (md model) sorted() []Site {
	out := make([]Site, 0, len(md))
	for s := range md {
		out = append(out, s)
	}
	slices.Sort(out)
	return out
}

func (md model) marshal() []byte {
	out := binary.LittleEndian.AppendUint64(nil, uint64(len(md)))
	for _, s := range md.sorted() {
		out = binary.LittleEndian.AppendUint64(out, uint64(s))
		out = binary.LittleEndian.AppendUint64(out, md[s])
	}
	return out
}

func (md model) signature() uint64 {
	h := uint64(fnvOffset64)
	for _, s := range md.sorted() {
		for i := 0; i < 8; i++ {
			h ^= uint64(s) >> (8 * i) & 0xff
			h *= fnvPrime64
		}
	}
	return h
}

// fuzzPool is the fixed site domain of FuzzCoverageModel. The registry is
// process-global and bounded, so fuzz inputs must not mint fresh sites.
var fuzzPool = func() []string {
	locs := make([]string, 24)
	for i := range locs {
		locs[i] = fmt.Sprintf("fuzz:site:%d", i)
	}
	return locs
}()

func checkMap(t *testing.T, name string, m *Map, md model) {
	t.Helper()
	if m.Count() != len(md) {
		t.Fatalf("%s: Count = %d, model %d", name, m.Count(), len(md))
	}
	for _, loc := range fuzzPool {
		s := SiteOf(loc)
		if m.Hits(s) != md[s] {
			t.Fatalf("%s: Hits(%s) = %d, model %d", name, loc, m.Hits(s), md[s])
		}
	}
	if got, want := m.Snapshot(), md.sorted(); !slices.Equal(got, want) {
		t.Fatalf("%s: Snapshot = %x, model %x", name, got, want)
	}
	if got, want := m.Signature(), md.signature(); got != want {
		t.Fatalf("%s: Signature = %#x, model %#x", name, got, want)
	}
	if got, _ := m.MarshalBinary(); !bytes.Equal(got, md.marshal()) {
		t.Fatalf("%s: MarshalBinary = %x, model %x", name, got, md.marshal())
	}
}

// FuzzCoverageModel drives random sequences of recorder and map
// operations and checks every observable against the reference model.
// Each input byte pair is one operation: the first byte picks it, the
// second picks a pool site (low bits) and a hit count (high bits).
func FuzzCoverageModel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 3, 0, 4, 2, 8, 0})
	f.Add([]byte{2, 0xff, 6, 0, 9, 3, 5, 0, 7, 1, 3, 0})
	f.Add([]byte{1, 7, 0, 7, 6, 0, 2, 0x31, 4, 0, 8, 0, 5, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		l := NewLocal()
		a, b := NewMap(), NewMap()
		lm, am, bm := model{}, model{}, model{}
		for i := 0; i+1 < len(ops); i += 2 {
			loc := fuzzPool[int(ops[i+1])%len(fuzzPool)]
			s := SiteOf(loc)
			n := uint64(ops[i+1] >> 5)
			switch ops[i] % 10 {
			case 0: // Local.Hit
				l.Hit(Intern(loc))
				lm.add(s, 1)
			case 1: // Local.HitLoc and Map.HitLoc
				l.HitLoc(loc)
				lm.add(s, 1)
				a.HitLoc(loc)
				am.add(s, 1)
			case 2: // AddSites of a persisted profile, into both recorders
				p, err := Compact([]SiteCount{{s, n}, {SiteOf(fuzzPool[0]), 1}})
				if err != nil {
					t.Fatal(err)
				}
				l.AddSites(p)
				lm.add(s, n)
				lm.add(SiteOf(fuzzPool[0]), 1)
				want := 0
				if am.add(s, n) {
					want++
				}
				if am.add(SiteOf(fuzzPool[0]), 1) {
					want++
				}
				if got := a.AddSites(p); got != want {
					t.Fatalf("AddSites fresh = %d, model %d", got, want)
				}
			case 3: // FlushTo
				want := 0
				for site, c := range lm {
					if am.add(site, c) {
						want++
					}
				}
				if got := l.FlushTo(a); got != want {
					t.Fatalf("FlushTo fresh = %d, model %d", got, want)
				}
				clear(lm)
			case 4: // Merge, in either direction
				dst, src, dm, sm := a, b, am, bm
				if n&1 == 1 {
					dst, src, dm, sm = b, a, bm, am
				}
				want := 0
				for site, c := range sm {
					if dm.add(site, c) {
						want++
					}
				}
				if got := dst.Merge(src); got != want {
					t.Fatalf("Merge fresh = %d, model %d", got, want)
				}
			case 5: // Diff
				want := 0
				for site := range bm {
					if _, ok := am[site]; !ok {
						want++
					}
				}
				if got := a.Diff(b); got != want {
					t.Fatalf("Diff = %d, model %d", got, want)
				}
			case 6: // Export, checked through its persisted form
				got := Expand(l.Export())
				if len(got) != len(lm) || l.Len() != len(lm) {
					t.Fatalf("Export has %d sites (Len %d), model %d", len(got), l.Len(), len(lm))
				}
				for k, sc := range got {
					if k > 0 && got[k-1].Site >= sc.Site {
						t.Fatal("Expand not sorted by site")
					}
					if lm[sc.Site] != sc.Count {
						t.Fatalf("Export count %d, model %d", sc.Count, lm[sc.Site])
					}
				}
			case 7: // Reset
				b.Reset()
				clear(bm)
			case 8: // Marshal/Unmarshal round trip of a into b
				blob, err := a.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if err := b.UnmarshalBinary(blob); err != nil {
					t.Fatal(err)
				}
				bm = maps.Clone(am)
			case 9: // Map.Hit
				b.Hit(s)
				bm.add(s, 1)
			}
			checkMap(t, "a", a, am)
			checkMap(t, "b", b, bm)
		}
	})
}
