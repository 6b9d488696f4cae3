//go:build race

package verifier

// raceEnabled keeps TestVerifyHotPathAllocBudget's tight budget to
// uninstrumented builds: under the race detector sync.Pool drops pooled
// states and envs at random, so the per-run allocation count measures
// the detector, not the hot path.
const raceEnabled = true
