package baseline

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/kernel"
	"repro/internal/maps"
)

func campaign(t *testing.T, src core.ProgramSource, sanitize bool, iters int) *core.Stats {
	t.Helper()
	mutate := 0
	if _, random := src.(Buzz); random && src.(Buzz).Mode == BuzzRandom {
		mutate = -1 // random-bytes fuzzing has no structured mutation
	}
	c := core.NewCampaign(core.CampaignConfig{
		Source: src, Version: kernel.BPFNext, Sanitize: sanitize, Seed: 3, MutateBias: mutate,
		// Unbatched schedule: these tests compare generator acceptance
		// and coverage against the paper's §6.3/Table 3 numbers, and
		// sibling batching deliberately reweights the generate/mutate
		// mix away from that methodology.
		MutateBatch: 1,
	})
	st, err := c.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func aluJmpShare(st *core.Stats) float64 {
	alu := st.InsnClassMix[isa.ClassALU] + st.InsnClassMix[isa.ClassALU64] +
		st.InsnClassMix[isa.ClassJMP] + st.InsnClassMix[isa.ClassJMP32]
	total := 0
	for _, n := range st.InsnClassMix {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(alu) / float64(total)
}

// TestAcceptanceRatesMatchPaper checks that the three tools land near
// their §6.3 acceptance rates: BVF 49%, Syzkaller 23.5%, Buzzer ~1%
// (random mode) and ~97% (ALU/JMP mode). Wide tolerances keep the test
// robust; the bench harness reports exact numbers.
func TestAcceptanceRatesMatchPaper(t *testing.T) {
	bvf := campaign(t, core.BVFSource(true), true, 6000)
	syz := campaign(t, Syz{}, false, 6000)
	bzR := campaign(t, Buzz{Mode: BuzzRandom}, false, 6000)
	bzA := campaign(t, Buzz{Mode: BuzzALUJmp}, false, 6000)

	check := func(name string, got, lo, hi float64) {
		t.Helper()
		if got < lo || got > hi {
			t.Errorf("%s acceptance = %.1f%%, want within [%.0f%%, %.0f%%]", name, 100*got, 100*lo, 100*hi)
		}
	}
	check("BVF", bvf.AcceptanceRate(), 0.40, 0.65)
	check("Syzkaller", syz.AcceptanceRate(), 0.12, 0.40)
	check("Buzzer(random)", bzR.AcceptanceRate(), 0.0, 0.06)
	check("Buzzer", bzA.AcceptanceRate(), 0.85, 1.0)

	if share := aluJmpShare(bzA); share < 0.80 {
		t.Errorf("Buzzer ALU/JMP share = %.1f%%, want > 80%% (paper: 88.4%%)", 100*share)
	}
	fmt.Printf("accept: BVF=%.1f%% Syz=%.1f%% BuzzR=%.1f%% BuzzA=%.1f%% (buzzA alujmp=%.1f%%)\n",
		100*bvf.AcceptanceRate(), 100*syz.AcceptanceRate(),
		100*bzR.AcceptanceRate(), 100*bzA.AcceptanceRate(), 100*aluJmpShare(bzA))
}

// TestCoverageOrdering checks the Figure 6 / Table 3 shape: BVF covers
// more verifier branches than Syzkaller, which covers far more than
// Buzzer.
func TestCoverageOrdering(t *testing.T) {
	bvf := campaign(t, core.BVFSource(true), true, 8000)
	syz := campaign(t, Syz{}, false, 8000)
	bz := campaign(t, Buzz{Mode: BuzzALUJmp}, false, 8000)
	if bvf.Coverage.Count() <= syz.Coverage.Count() {
		t.Errorf("BVF coverage %d <= Syzkaller %d", bvf.Coverage.Count(), syz.Coverage.Count())
	}
	if syz.Coverage.Count() <= bz.Coverage.Count() {
		t.Errorf("Syzkaller coverage %d <= Buzzer %d", syz.Coverage.Count(), bz.Coverage.Count())
	}
	fmt.Printf("coverage: BVF=%d Syz=%d Buzz=%d\n",
		bvf.Coverage.Count(), syz.Coverage.Count(), bz.Coverage.Count())
}

// TestBaselinesFindNoVerifierBugs mirrors the RQ1 outcome: within the
// same budget that lets BVF find bugs, the baselines find none of the
// verifier correctness bugs.
func TestBaselinesFindNoVerifierBugs(t *testing.T) {
	syz := campaign(t, Syz{}, false, 8000)
	bz := campaign(t, Buzz{Mode: BuzzALUJmp}, false, 8000)
	for _, st := range []*core.Stats{syz, bz} {
		if n := st.VerifierBugsFound(); n != 0 {
			t.Errorf("%s found %d verifier bugs (%v); the paper's baselines found none",
				st.Tool, n, st.BugIDs())
		}
	}
}

func TestGeneratedProgramsAreStructurallyValid(t *testing.T) {
	pool := []core.MapHandle{
		{FD: 3, Spec: maps.Spec{Type: maps.Array, KeySize: 4, ValueSize: 64, MaxEntries: 4, Name: "a"}},
		{FD: 5, Spec: maps.Spec{Type: maps.Hash, KeySize: 8, ValueSize: 48, MaxEntries: 16, Name: "h"}},
	}
	r := rand.New(rand.NewSource(11))
	syz := Syz{}
	bz := Buzz{Mode: BuzzALUJmp}
	syzValid := 0
	for i := 0; i < 2000; i++ {
		// Syzkaller-like programs know the encodings but may still emit
		// structurally invalid control flow (out-of-range jumps) — the
		// paper: its inputs "can violate simple rules of eBPF programs".
		if err := syz.Generate(r, pool).Validate(isa.MaxInsns); err == nil {
			syzValid++
		}
		// Buzzer's conservative mode is always structurally valid.
		if err := bz.Generate(r, pool).Validate(isa.MaxInsns); err != nil {
			t.Fatalf("buzz program %d structurally invalid: %v", i, err)
		}
	}
	if syzValid < 500 || syzValid == 2000 {
		t.Errorf("syz structural validity = %d/2000, want partial", syzValid)
	}
}
