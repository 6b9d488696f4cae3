package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"

	"repro/internal/core"
)

// fingerprint is what one campaign's verdicts must reproduce: the same
// work was timed only if these match.
type fingerprint struct {
	Iterations int      `json:"iterations"`
	Accepted   int      `json:"accepted"`
	Sites      int      `json:"sites"`
	Signature  string   `json:"signature"`
	Bugs       []string `json:"bugs"`
	// Verdict-cache counters, recorded only where the cache is on.
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
}

func fingerprintOf(st *core.Stats) fingerprint {
	fp := fingerprint{
		Iterations:  st.Iterations,
		Accepted:    st.Accepted,
		Sites:       st.Coverage.Count(),
		Signature:   strconv.FormatUint(st.Coverage.Signature(), 16),
		Bugs:        make([]string, 0, len(st.Bugs)),
		CacheHits:   st.CacheHits,
		CacheMisses: st.CacheMisses,
	}
	for key := range st.Bugs {
		fp.Bugs = append(fp.Bugs, key.String())
	}
	sort.Strings(fp.Bugs)
	return fp
}

// verdicts drops the cache counters, which a cache-off reference run
// cannot reproduce.
func (f fingerprint) verdicts() fingerprint {
	f.CacheHits, f.CacheMisses = 0, 0
	return f
}

func (f fingerprint) equal(g fingerprint) bool { return reflect.DeepEqual(f, g) }

func (f fingerprint) String() string {
	b, _ := json.Marshal(f) // a struct of strings and ints always marshals
	return string(b)
}

// fingerprintKey names one campaign of one workload: its seed and
// iteration budget.
func fingerprintKey(seed int64, iters int) string {
	return fmt.Sprintf("%d/%d", seed, iters)
}

// fingerprintBook maps workload → fingerprintKey → fingerprint.
type fingerprintBook map[string]map[string]fingerprint

// check compares fp against the book's entry for (workload, key), if any.
func (b fingerprintBook) check(wl, key string, fp fingerprint) (found bool, err error) {
	want, ok := b[wl][key]
	if !ok {
		return false, nil
	}
	if !want.equal(fp) {
		return true, fmt.Errorf("%s campaign %s: fingerprint %s, want %s", wl, key, fp, want)
	}
	return true, nil
}

func (b fingerprintBook) add(wl, key string, fp fingerprint) {
	if b[wl] == nil {
		b[wl] = make(map[string]fingerprint)
	}
	b[wl][key] = fp
}

// runStore is the checkout-local record of every fingerprint a run has
// produced, so that every later run of the same seed, traced or not,
// must reproduce it.
type runStore struct {
	path string
	book fingerprintBook
}

func openRunStore(buildDir string) (*runStore, error) {
	s := &runStore{path: filepath.Join(buildDir, "fingerprints.json"), book: fingerprintBook{}}
	data, err := os.ReadFile(s.path)
	if errors.Is(err, os.ErrNotExist) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("fingerprint store: %w", err)
	}
	if err := json.Unmarshal(data, &s.book); err != nil {
		return nil, fmt.Errorf("fingerprint store %s: %w", s.path, err)
	}
	return s, nil
}

// save writes the store atomically (temp file, then rename).
func (s *runStore) save() error {
	data, err := json.MarshalIndent(s.book, "", " ")
	if err != nil {
		return err
	}
	tmp := s.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("fingerprint store: %w", err)
	}
	if err := os.Rename(tmp, s.path); err != nil {
		return fmt.Errorf("fingerprint store: %w", err)
	}
	return nil
}
