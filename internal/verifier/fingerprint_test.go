package verifier

import (
	"bytes"
	"testing"

	"repro/internal/asm"
	"repro/internal/bugs"
	"repro/internal/isa"
)

// fpTestProgram builds a deterministic program from a seed, with enough
// field variety that every canonical-byte lane carries data.
func fpTestProgram(seed uint64, n int) *isa.Program {
	if n < 1 {
		n = 1
	}
	p := &isa.Program{
		Type:          isa.ProgramType(seed % 4),
		Name:          "fp-test",
		AttachTo:      "sys_enter",
		GPLCompatible: seed%2 == 0,
	}
	x := seed | 1
	next := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	for i := 0; i < n; i++ {
		p.Insns = append(p.Insns, isa.Instruction{
			Opcode: uint8(next()),
			Dst:    uint8(next() % 11),
			Src:    uint8(next() % 11),
			Off:    int16(next()),
			Imm:    int32(next()),
			Imm64:  next(),
		})
	}
	return p
}

func cloneProgram(p *isa.Program) *isa.Program {
	q := *p
	q.Insns = append([]isa.Instruction(nil), p.Insns...)
	return &q
}

// TestProgramFingerprintFieldSensitivity mutates every verification-
// relevant field one at a time and requires the fingerprint to move: a
// field the canonical form ignores would alias distinct programs onto one
// cache entry. (Correctness does not depend on this — lookups compare the
// canonical bytes — but a byte-compare mismatch only yields a miss, and a
// field missing from the canonical form would yield a wrong *hit*.)
func TestProgramFingerprintFieldSensitivity(t *testing.T) {
	base := fpTestProgram(7, 6)
	mutations := map[string]func(*isa.Program){
		"type":           func(p *isa.Program) { p.Type++ },
		"gpl":            func(p *isa.Program) { p.GPLCompatible = !p.GPLCompatible },
		"name":           func(p *isa.Program) { p.Name = "fp-test2" },
		"attach":         func(p *isa.Program) { p.AttachTo = "sys_exit" },
		"opcode":         func(p *isa.Program) { p.Insns[2].Opcode ^= 0x01 },
		"dst":            func(p *isa.Program) { p.Insns[2].Dst ^= 1 },
		"src":            func(p *isa.Program) { p.Insns[2].Src ^= 1 },
		"off-low-byte":   func(p *isa.Program) { p.Insns[2].Off ^= 0x0001 },
		"off-high-byte":  func(p *isa.Program) { p.Insns[2].Off ^= 0x0100 },
		"imm-low-byte":   func(p *isa.Program) { p.Insns[2].Imm ^= 0x00000001 },
		"imm-high-byte":  func(p *isa.Program) { p.Insns[2].Imm ^= 0x01000000 },
		"imm64":          func(p *isa.Program) { p.Insns[2].Imm64 ^= 1 << 40 },
		"meta-rewrite":   func(p *isa.Program) { p.Insns[2].Meta.RewriteEmitted = true },
		"meta-sanitized": func(p *isa.Program) { p.Insns[2].Meta.Sanitized = true },
		"meta-probemem":  func(p *isa.Program) { p.Insns[2].Meta.ProbeMem = true },
		"append-insn":    func(p *isa.Program) { p.Insns = append(p.Insns, isa.Instruction{Opcode: 0x95}) },
		"drop-last-insn": func(p *isa.Program) { p.Insns = p.Insns[:len(p.Insns)-1] },
	}
	baseFP := ProgramFingerprint(base)
	baseCanon := CanonicalProgramBytes(base)
	for name, mutate := range mutations {
		q := cloneProgram(base)
		mutate(q)
		if bytes.Equal(CanonicalProgramBytes(q), baseCanon) {
			t.Errorf("%s: canonical bytes unchanged by mutation", name)
		}
		if ProgramFingerprint(q) == baseFP {
			t.Errorf("%s: fingerprint unchanged by mutation", name)
		}
	}
}

// TestMatchCanonical pins the field-wise decode against the byte builder:
// MatchCanonical(CanonicalProgramBytes(p), p) must hold for arbitrary
// programs, and every single-field perturbation (same set as the
// fingerprint sensitivity test) must break the match — the hit path's
// collision guard compares programs without materializing their bytes,
// so a lane the decoder skipped would turn a fingerprint collision into
// a wrong verdict.
func TestMatchCanonical(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		p := fpTestProgram(seed, int(seed))
		if !MatchCanonical(CanonicalProgramBytes(p), p) {
			t.Fatalf("seed %d: program does not match its own canonical bytes", seed)
		}
	}
	base := fpTestProgram(7, 6)
	canon := CanonicalProgramBytes(base)
	mutations := map[string]func(*isa.Program){
		"type":           func(p *isa.Program) { p.Type++ },
		"gpl":            func(p *isa.Program) { p.GPLCompatible = !p.GPLCompatible },
		"name":           func(p *isa.Program) { p.Name = "fp-test2" },
		"attach":         func(p *isa.Program) { p.AttachTo = "sys_exit" },
		"opcode":         func(p *isa.Program) { p.Insns[2].Opcode ^= 0x01 },
		"dst":            func(p *isa.Program) { p.Insns[2].Dst ^= 1 },
		"src":            func(p *isa.Program) { p.Insns[2].Src ^= 1 },
		"off-low-byte":   func(p *isa.Program) { p.Insns[2].Off ^= 0x0001 },
		"off-high-byte":  func(p *isa.Program) { p.Insns[2].Off ^= 0x0100 },
		"imm-low-byte":   func(p *isa.Program) { p.Insns[2].Imm ^= 0x00000001 },
		"imm-high-byte":  func(p *isa.Program) { p.Insns[2].Imm ^= 0x01000000 },
		"imm64-low":      func(p *isa.Program) { p.Insns[2].Imm64 ^= 1 },
		"imm64-high":     func(p *isa.Program) { p.Insns[2].Imm64 ^= 1 << 40 },
		"meta-rewrite":   func(p *isa.Program) { p.Insns[2].Meta.RewriteEmitted = true },
		"meta-sanitized": func(p *isa.Program) { p.Insns[2].Meta.Sanitized = true },
		"meta-probemem":  func(p *isa.Program) { p.Insns[2].Meta.ProbeMem = true },
		"append-insn":    func(p *isa.Program) { p.Insns = append(p.Insns, isa.Instruction{Opcode: 0x95}) },
		"drop-last-insn": func(p *isa.Program) { p.Insns = p.Insns[:len(p.Insns)-1] },
	}
	for name, mutate := range mutations {
		q := cloneProgram(base)
		mutate(q)
		if MatchCanonical(canon, q) {
			t.Errorf("%s: mutated program still matches the base canonical bytes", name)
		}
		if !MatchCanonical(CanonicalProgramBytes(q), q) {
			t.Errorf("%s: mutated program does not match its own canonical bytes", name)
		}
	}
}

// TestProgramFingerprintDeterministic pins that the fingerprint is a pure
// function of the program value, and identical for clones.
func TestProgramFingerprintDeterministic(t *testing.T) {
	p := fpTestProgram(42, 8)
	if a, b := ProgramFingerprint(p), ProgramFingerprint(p); a != b {
		t.Fatalf("fingerprint unstable: %#x vs %#x", a, b)
	}
	if a, b := ProgramFingerprint(p), ProgramFingerprint(cloneProgram(p)); a != b {
		t.Fatalf("clone fingerprint differs: %#x vs %#x", a, b)
	}
}

// TestCanonicalProgramBytesStringBoundaries pins the length-prefix framing:
// moving a character across the Name/AttachTo boundary must not collide.
func TestCanonicalProgramBytesStringBoundaries(t *testing.T) {
	a := &isa.Program{Name: "ab", AttachTo: "c", Insns: []isa.Instruction{{Opcode: 0x95}}}
	b := &isa.Program{Name: "a", AttachTo: "bc", Insns: []isa.Instruction{{Opcode: 0x95}}}
	if bytes.Equal(CanonicalProgramBytes(a), CanonicalProgramBytes(b)) {
		t.Fatal("length prefixes failed: ab+c collides with a+bc")
	}
}

func traceFP(p *isa.Program, pcs []int32, end int) uint64 {
	return uint64(walkTrace(p, pcs, end, hashSink(fpOffset64)))
}

func traceCanon(p *isa.Program, pcs []int32, end int) []byte {
	return walkTrace(p, pcs, end, appendSink(nil))
}

// TestTraceFingerprintStreaming pins that the trace fingerprint is a
// function of the trace canon: programs whose traces encode to equal
// bytes — here they differ only in the name and in instructions the
// trace never executes, neither of which the trace identity includes —
// must share the fingerprint, or the recurrence filter and the snapshot
// store would disagree about trace identity. Changing an executed
// instruction must move both. The pc sequences are arbitrary (the
// encoding does not care that they came from a real control-flow walk),
// including repeated and out-of-order pcs.
func TestTraceFingerprintStreaming(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 99, 12345} {
		p := fpTestProgram(seed, 2+int(seed%14))
		x := seed*2654435761 | 1
		next := func() uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return x
		}
		for trial := 0; trial < 8; trial++ {
			// The last instruction is never executed.
			pcs := make([]int32, next()%uint64(len(p.Insns)+1))
			for i := range pcs {
				pcs[i] = int32(next() % uint64(len(p.Insns)-1))
			}
			end := int(next() % uint64(len(p.Insns)+1))
			q := cloneProgram(p)
			q.Name = "renamed"
			q.Insns[len(q.Insns)-1].Imm ^= 0x5a5a
			if !bytes.Equal(traceCanon(p, pcs, end), traceCanon(q, pcs, end)) {
				t.Fatalf("seed %d trial %d: unexecuted changes moved the trace canon", seed, trial)
			}
			if traceFP(p, pcs, end) != traceFP(q, pcs, end) {
				t.Fatalf("seed %d trial %d: equal trace canon, different fingerprints", seed, trial)
			}
			if len(pcs) == 0 {
				continue
			}
			q.Insns[pcs[0]].Off ^= 1
			if bytes.Equal(traceCanon(p, pcs, end), traceCanon(q, pcs, end)) {
				t.Fatalf("seed %d trial %d: executed change left the trace canon", seed, trial)
			}
			if traceFP(p, pcs, end) == traceFP(q, pcs, end) {
				t.Fatalf("seed %d trial %d: executed change left the trace fingerprint", seed, trial)
			}
		}
	}
}

// TestCanonicalTraceBytesPCSensitivity pins that the trace canon depends
// on the executed pcs and the boundary pc, not just the instruction
// bytes: the slot arithmetic behind jump targets and the pc-keyed prune
// snapshots make two position-shifted traces semantically different even
// when their instruction bytes match.
func TestCanonicalTraceBytesPCSensitivity(t *testing.T) {
	p := fpTestProgram(3, 8)
	// Make two positions hold identical instructions.
	p.Insns[5] = p.Insns[2]
	a := traceCanon(p, []int32{0, 1, 2}, 3)
	b := traceCanon(p, []int32{0, 1, 5}, 3)
	if bytes.Equal(a, b) {
		t.Fatal("trace canon ignores executed pcs")
	}
	c := traceCanon(p, []int32{0, 1, 2}, 6)
	if bytes.Equal(a, c) {
		t.Fatal("trace canon ignores the boundary pc")
	}
}

// TestCacheKeyingZeroAlloc guards the claim that keying the verdict cache
// never allocates: the program fingerprint (every cacheable Verify), the
// canonical compare against a stored entry (every fingerprint hit), and
// the trace fingerprint (every trace-prefix sighting).
func TestCacheKeyingZeroAlloc(t *testing.T) {
	p := fpTestProgram(11, 60)
	stored := CanonicalProgramBytes(cloneProgram(p))
	pcs := make([]int32, 40)
	for i := range pcs {
		pcs[i] = int32(i)
	}
	for name, fn := range map[string]func(){
		"ProgramFingerprint": func() { keyingSink += ProgramFingerprint(p) },
		"MatchCanonical": func() {
			if !MatchCanonical(stored, p) {
				t.Fatal("program does not match its stored canonical bytes")
			}
		},
		"trace fingerprint": func() { keyingSink += traceFP(p, pcs, 40) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
}

// keyingSink keeps the benchmarked fingerprints live.
var keyingSink uint64

// BenchmarkCacheKeying measures the three allocation-free keying walks on
// a 60-instruction program.
func BenchmarkCacheKeying(b *testing.B) {
	p := fpTestProgram(11, 60)
	stored := CanonicalProgramBytes(cloneProgram(p))
	pcs := make([]int32, 40)
	for i := range pcs {
		pcs[i] = int32(i)
	}
	b.Run("ProgramFingerprint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			keyingSink += ProgramFingerprint(p)
		}
	})
	b.Run("MatchCanonical", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !MatchCanonical(stored, p) {
				b.Fatal("mismatch")
			}
		}
	})
	b.Run("TraceFingerprint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			keyingSink += traceFP(p, pcs, 40)
		}
	})
}

// TestStateFingerprintIncrementalAudit re-runs the entire selftest corpus
// — helper and kfunc calls, bpf-to-bpf frames, null-check branches,
// packet-range refinement, reference release, the armed-bug knobs — with
// the fpAudit cross-check enabled. Every pruneOrRecord comparison then
// recomputes the state fingerprint from scratch and panics if the sparse
// per-register contribution cache drifted from it, which is exactly the
// failure mode of a register write site missing its touchReg marking.
func TestStateFingerprintIncrementalAudit(t *testing.T) {
	fpAudit = true
	defer func() { fpAudit = false }()
	for _, tc := range selftests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prog, err := asm.Assemble(tc.src)
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			prog.Type = tc.progType
			if prog.Type == isa.ProgTypeUnspec {
				prog.Type = isa.ProgTypeSocketFilter
			}
			prog.AttachTo = tc.attachTo
			prog.GPLCompatible = !tc.nonGPL
			b := tc.bugs
			if b == nil {
				b = bugs.None()
			}
			cfg, done := selftestKernel(t, b)
			defer done()
			// The verdict is pinned by TestVerifierSelftests; here only the
			// audit inside pruneOrRecord matters, and it panics on drift.
			_, _ = Verify(prog, cfg)
		})
	}
}

// FuzzProgramFingerprintSingleByte asserts the no-collision property the
// verdict cache's index quality rests on: two programs differing in
// exactly one imm or off byte never share a fingerprint. This is exact,
// not probabilistic — FNV-1a's xor and odd-prime multiply are both
// bijections on u64, so a single differing byte at one position in
// equal-length inputs propagates to the final hash.
func FuzzProgramFingerprintSingleByte(f *testing.F) {
	f.Add(uint64(7), uint(2), uint(0), byte(0xff))
	f.Add(uint64(1), uint(0), uint(5), byte(0x00))
	f.Add(uint64(99), uint(11), uint(3), byte(0x5a))
	f.Fuzz(func(t *testing.T, seed uint64, insnSel, byteSel uint, nb byte) {
		p := fpTestProgram(seed, 1+int(seed%12))
		q := cloneProgram(p)
		ins := &q.Insns[int(insnSel)%len(q.Insns)]
		// byteSel picks one of the six single-byte lanes: imm[0..3], off[0..1].
		switch lane := byteSel % 6; lane {
		case 0, 1, 2, 3:
			shift := 8 * lane
			old := uint32(ins.Imm)
			mut := old&^(0xff<<shift) | uint32(nb)<<shift
			if mut == old {
				t.Skip("mutation is the identity")
			}
			ins.Imm = int32(mut)
		case 4, 5:
			shift := 8 * (lane - 4)
			old := uint16(ins.Off)
			mut := old&^(0xff<<shift) | uint16(nb)<<shift
			if mut == old {
				t.Skip("mutation is the identity")
			}
			ins.Off = int16(mut)
		}
		pc, qc := CanonicalProgramBytes(p), CanonicalProgramBytes(q)
		if bytes.Equal(pc, qc) {
			t.Fatal("single-byte field mutation did not change canonical bytes")
		}
		if len(pc) != len(qc) {
			t.Fatalf("imm/off mutation changed canonical length: %d vs %d", len(pc), len(qc))
		}
		if ProgramFingerprint(p) == ProgramFingerprint(q) {
			t.Errorf("fingerprint collision on single-byte difference: seed=%d insn=%d byte=%d nb=%#x",
				seed, int(insnSel)%len(p.Insns), byteSel%6, nb)
		}
	})
}
