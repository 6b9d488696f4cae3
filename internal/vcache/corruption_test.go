package vcache

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/coverage"
	"repro/internal/verifier"
)

func testVerdict(i int) (uint64, []byte, *verifier.CachedVerdict) {
	fp := 0x9e3779b97f4a7c15 * uint64(i+1)
	canon := []byte(fmt.Sprintf("prog-%d", i))
	v := &verifier.CachedVerdict{Prog: canon}
	if i%2 == 0 {
		v.Rejected = true
		v.Insn = i
		v.Errno = 22
		v.Msg = fmt.Sprintf("invalid access at insn %d", i)
	} else {
		v.InsnProcessed = 10 + i
		v.PeakStates = 3
		v.TotalStates = 7 + i
	}
	return fp, canon, v
}

// lookupCanon is Lookup keyed by pre-built canonical bytes instead of a
// live program: the round-trip tests exercise the store with synthetic
// entries that have no program behind them.
func lookupCanon(s *Store, fp uint64, canon []byte) *verifier.CachedVerdict {
	s.mu.RLock()
	v := s.entries[fp]
	s.mu.RUnlock()
	if v != nil && bytes.Equal(v.Prog, canon) {
		return v
	}
	return nil
}

func exportToFile(t *testing.T, n int) (path string, src *Store) {
	t.Helper()
	src = NewStore(0)
	for i := 0; i < n; i++ {
		fp, _, v := testVerdict(i)
		src.Insert(fp, v)
	}
	path = filepath.Join(t.TempDir(), "cache.ckpt")
	if err := checkpoint.Save(path, src.Export()); err != nil {
		t.Fatalf("save: %v", err)
	}
	return path, src
}

// TestExportImportRoundTrip: an intact serialized cache restores every
// verdict exactly.
func TestExportImportRoundTrip(t *testing.T) {
	const n = 8
	path, _ := exportToFile(t, n)

	var ser Serialized
	if err := checkpoint.Load(path, &ser); err != nil {
		t.Fatalf("load: %v", err)
	}
	dst := NewStore(0)
	if err := dst.Import(&ser); err != nil {
		t.Fatalf("import: %v", err)
	}
	if dst.Len() != n {
		t.Fatalf("imported %d entries, want %d", dst.Len(), n)
	}
	for i := 0; i < n; i++ {
		fp, canon, want := testVerdict(i)
		got := lookupCanon(dst, fp, canon)
		if got == nil {
			t.Fatalf("entry %d missing after round-trip", i)
		}
		if got.Rejected != want.Rejected || got.Msg != want.Msg ||
			got.Insn != want.Insn || got.Errno != want.Errno ||
			got.InsnProcessed != want.InsnProcessed || got.TotalStates != want.TotalStates {
			t.Errorf("entry %d round-tripped as %+v, want %+v", i, got, want)
		}
	}
}

// TestImportTruncatedErrors: every possible truncation of the cache
// checkpoint must fail to load. A verdict cache that silently imported a
// prefix could replay a wrong (or missing) verdict and desynchronize a
// resumed campaign from its original trajectory.
func TestImportTruncatedErrors(t *testing.T) {
	path, _ := exportToFile(t, 8)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, 4, len(raw) / 4, len(raw) / 2, len(raw) - 1} {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var ser Serialized
		err := checkpoint.Load(path, &ser)
		if err == nil {
			t.Fatalf("truncation to %d/%d bytes loaded successfully", cut, len(raw))
		}
		if !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("truncation to %d bytes: err = %v, want ErrCorrupt", cut, err)
		}
		if len(ser.Entries) != 0 {
			t.Errorf("truncation to %d bytes leaked %d entries into the target", cut, len(ser.Entries))
		}
	}
}

// TestImportBitFlipErrors: a single flipped bit anywhere in the file —
// header, length, or gob payload — must fail the load. The CRC envelope
// guarantees this; without it a flipped bit inside a gob-encoded verdict
// could import cleanly with, say, Rejected inverted, and a campaign
// resuming on that cache would split from its recorded trajectory with
// no diagnostic at all.
func TestImportBitFlipErrors(t *testing.T) {
	path, _ := exportToFile(t, 4)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(raw); pos++ {
		flipped := append([]byte(nil), raw...)
		flipped[pos] ^= 1 << (pos % 8)
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		var ser Serialized
		if err := checkpoint.Load(path, &ser); err == nil {
			t.Fatalf("bit flip at byte %d/%d imported successfully", pos, len(raw))
		}
	}
}

// TestImportCoverageProfile: an entry's coverage profile survives
// Import and Export in its persisted (site, count) form, sorted by site;
// importing the same snapshot twice leaves it intact; and a profile whose
// sites do not fit in the coverage site registry fails the import, which
// then imports nothing and registers no site.
func TestImportCoverageProfile(t *testing.T) {
	cov := []coverage.SiteCount{
		{Site: coverage.SiteOf("vcache:a"), Count: 3},
		{Site: coverage.SiteOf("vcache:b"), Count: 1},
	}
	slices.SortFunc(cov, func(a, b coverage.SiteCount) int { return cmp.Compare(a.Site, b.Site) })
	fp, _, v := testVerdict(1)
	v.Cov = cov
	ser := &Serialized{Entries: []SerializedEntry{{FP: fp, V: v}}}
	for i := 0; i < 2; i++ {
		dst := NewStore(0)
		if err := dst.Import(ser); err != nil {
			t.Fatalf("import %d: %v", i, err)
		}
		out := dst.Export()
		if len(out.Entries) != 1 || !slices.Equal(out.Entries[0].V.Cov, cov) {
			t.Fatalf("import %d: profile round-tripped as %+v, want %v", i, out.Entries, cov)
		}
	}

	huge := make([]coverage.SiteCount, coverage.MaxSites+1)
	for i := range huge {
		huge[i] = coverage.SiteCount{Site: coverage.SiteOf(fmt.Sprintf("vcache:huge:%d", i)), Count: 1}
	}
	fp2, _, v2 := testVerdict(2)
	v2.Cov = huge
	before := coverage.Registered()
	dst := NewStore(0)
	err := dst.Import(&Serialized{Entries: []SerializedEntry{{FP: fp, V: v}, {FP: fp2, V: v2}}})
	if !errors.Is(err, coverage.ErrRegistryFull) {
		t.Fatalf("oversized profile: err = %v, want ErrRegistryFull", err)
	}
	if dst.Len() != 0 || coverage.Registered() != before {
		t.Fatalf("refused import left %d entries, registry %d -> %d sites", dst.Len(), before, coverage.Registered())
	}
}
