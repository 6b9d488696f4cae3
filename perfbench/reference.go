package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
)

// reference is the part of perfbench/reference.json the benchmark reads:
// the recorded fingerprints, the held-out seed, each workload's reason
// for inclusion and the metric → layer → workload map. The file also
// holds the default seed, each metric's source and the first baseline.
type reference struct {
	// HeldOutSeed is reserved for confirming later claims: a change is
	// tuned on other seeds and confirmed on this one.
	HeldOutSeed  int64                     `json:"held_out_seed"`
	Workloads    map[string]workloadNote   `json:"workloads"`
	MetricMap    map[string]metricMapEntry `json:"metric_map"`
	Fingerprints fingerprintBook           `json:"fingerprints"`
}

// workloadNote records why a workload is in the benchmark.
type workloadNote struct {
	Why string `json:"why"`
}

// metricMapEntry ties a metric to its layer, the end-to-end metrics it
// should move, the workload where that layer does most of the work and
// the workloads that bypass it (where the prediction is no change).
type metricMapEntry struct {
	Layer    string   `json:"layer"`
	Moves    []string `json:"moves"`
	Work     string   `json:"work"`
	Bypassed string   `json:"bypassed"`
}

func loadReference(path string) (*reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", path, err)
	}
	if ref.Fingerprints == nil {
		ref.Fingerprints = fingerprintBook{}
	}
	return &ref, nil
}

// vcsRevision is the git commit the binary was built from, when the
// build could stamp it.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even in a checkout that is not a git
// repository. Hidden directories (the build directory among them) are
// skipped.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
