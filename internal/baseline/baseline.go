// Package baseline implements the two comparison fuzzers from the paper's
// evaluation:
//
//   - syzgen: a Syzkaller-style generator. Like the real syzbot bpf
//     descriptions, it knows the instruction *formats* (it always emits
//     structurally valid encodings, valid register numbers and a final
//     exit) but performs no state tracking, so most programs die on
//     uninitialized registers or invalid accesses — the paper measured a
//     23.5% acceptance rate dominated by EACCES/EINVAL rejections.
//
//   - buzzgen: a Buzzer-style generator with its two modes. Mode A emits
//     highly random programs (~1% acceptance); mode B emits ALU/JMP-heavy
//     programs over pre-initialized registers (~97% acceptance, 88.4%+
//     ALU/JMP instructions) that rarely touch maps, helpers or memory.
package baseline

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/helpers"
	"repro/internal/isa"
	"repro/internal/kernel"
)

// SourceForTool maps a tool name, the vocabulary of bvf's -tool flag and
// of a distributed campaign spec, onto its program source for kernel ver.
// sanitizeOK reports whether the tool works with the BVF sanitation
// patches (baselines run without them), and mutateBias is the tool's
// corpus-mutation bias (-1 disables mutation for random-bytes fuzzers).
func SourceForTool(tool string, ver kernel.Version) (src core.ProgramSource, sanitizeOK bool, mutateBias int, err error) {
	switch tool {
	case "bvf":
		return core.BVFSource(ver.HasKfuncs()), true, 0, nil
	case "syzkaller":
		return Syz{}, false, 0, nil
	case "buzzer":
		return Buzz{Mode: BuzzALUJmp}, false, 0, nil
	case "buzzer-random":
		return Buzz{Mode: BuzzRandom}, false, -1, nil
	}
	return nil, false, 0, fmt.Errorf("unknown tool %q (want bvf, syzkaller, buzzer or buzzer-random)", tool)
}

// Syz is the Syzkaller-like source.
type Syz struct{}

// Name implements core.ProgramSource.
func (Syz) Name() string { return "Syzkaller" }

// Generate emits a structurally valid but state-blind program.
func (Syz) Generate(r *rand.Rand, pool []core.MapHandle) *isa.Program {
	p := &isa.Program{
		Type:          isa.AllProgramTypes[r.Intn(len(isa.AllProgramTypes))],
		GPLCompatible: r.Intn(4) != 0,
		Name:          "syz_gen",
	}
	// Syzkaller's corpus skews toward short programs; template snippets
	// (from its bpf test descriptions) appear often and pass trivially.
	if r.Intn(100) < 30 {
		p.Insns = append(p.Insns, templateSnippet(r, pool)...)
		p.Insns = append(p.Insns, isa.Exit())
		return p
	}
	n := 1 + r.Intn(8)
	for i := 0; i < n; i++ {
		p.Insns = append(p.Insns, randomValidInsn(r, pool, n))
	}
	p.Insns = append(p.Insns, isa.Exit())
	return p
}

// templateSnippet reproduces the hand-written description fragments
// syzkaller carries for bpf — its descriptions and seed corpus (imported
// from the kernel self-tests) cover many known-good shapes, which is how
// the real syzbot reaches a fair amount of the verifier despite its
// state-blind random generation.
func templateSnippet(r *rand.Rand, pool []core.MapHandle) []isa.Instruction {
	pickMap := func() (core.MapHandle, bool) {
		if len(pool) == 0 {
			return core.MapHandle{}, false
		}
		return pool[r.Intn(len(pool))], true
	}
	switch r.Intn(14) {
	case 10:
		// XDP packet bounds-check pattern (selftest seed shape). Only
		// meaningful on packet-carrying types; harmless rejects
		// otherwise.
		return []isa.Instruction{
			isa.LoadMem(isa.SizeDW, isa.R2, isa.R1, 0),
			isa.LoadMem(isa.SizeDW, isa.R3, isa.R1, 8),
			isa.Mov64Reg(isa.R4, isa.R2),
			isa.Alu64Imm(isa.ALUAdd, isa.R4, 4),
			isa.JumpReg(isa.JGT, isa.R4, isa.R3, 1),
			isa.LoadMem(isa.SizeB, isa.R0, isa.R2, 0),
			isa.Mov64Imm(isa.R0, 0),
		}
	case 11:
		// Queue push.
		if m, ok := pickMap(); ok {
			return []isa.Instruction{
				isa.LoadMapFD(isa.R1, m.FD),
				isa.StoreImm(isa.SizeDW, isa.R10, -8, 7),
				isa.StoreImm(isa.SizeDW, isa.R10, -16, 9),
				isa.Mov64Reg(isa.R2, isa.R10),
				isa.Alu64Imm(isa.ALUAdd, isa.R2, -16),
				isa.Mov64Imm(isa.R3, 0),
				isa.Call(helpers.MapPushElem),
				isa.Mov64Imm(isa.R0, 0),
			}
		}
		return []isa.Instruction{isa.Mov64Imm(isa.R0, 0)}
	case 12:
		// probe_read_kernel into the stack (tracing types only).
		return []isa.Instruction{
			isa.Mov64Reg(isa.R1, isa.R10),
			isa.Alu64Imm(isa.ALUAdd, isa.R1, -8),
			isa.Mov64Imm(isa.R2, 8),
			isa.LoadImm64(isa.R3, 0xffff880000000000),
			isa.Call(helpers.ProbeReadKernel),
			isa.Mov64Imm(isa.R0, 0),
		}
	case 13:
		// current task btf pointer + field read (tracing types only).
		return []isa.Instruction{
			isa.Call(helpers.GetCurrentTaskBTF),
			isa.LoadMem(isa.SizeW, isa.R0, isa.R0, 8),
			isa.Alu64Imm(isa.ALUAnd, isa.R0, 0xffff),
		}
	case 0:
		return []isa.Instruction{isa.Mov64Imm(isa.R0, int32(r.Intn(2)))}
	case 1:
		return []isa.Instruction{
			isa.Mov64Imm(isa.R0, 0),
			isa.StoreImm(isa.SizeDW, isa.R10, -8, int32(r.Intn(100))),
			isa.LoadMem(isa.SizeDW, isa.R0, isa.R10, -8),
		}
	case 2:
		// Lookup without null check (often rejected downstream use).
		if m, ok := pickMap(); ok {
			return []isa.Instruction{
				isa.LoadMapFD(isa.R1, m.FD),
				isa.Mov64Reg(isa.R2, isa.R10),
				isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
				isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
				isa.Call(helpers.MapLookupElem),
				isa.Mov64Imm(isa.R0, 0),
			}
		}
		return []isa.Instruction{isa.Mov64Imm(isa.R0, 0)}
	case 3:
		// Null-checked lookup and dereference (self-test seed shape).
		if m, ok := pickMap(); ok {
			return []isa.Instruction{
				isa.LoadMapFD(isa.R1, m.FD),
				isa.Mov64Reg(isa.R2, isa.R10),
				isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
				isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
				isa.Call(helpers.MapLookupElem),
				isa.JumpImm(isa.JNE, isa.R0, 0, 1),
				isa.JumpA(1),
				isa.LoadMem(isa.SizeB, isa.R0, isa.R0, 0),
				isa.Mov64Imm(isa.R0, 0),
			}
		}
		return []isa.Instruction{isa.Mov64Imm(isa.R0, 0)}
	case 4:
		// Map update with stack key and value.
		if m, ok := pickMap(); ok {
			return []isa.Instruction{
				isa.LoadMapFD(isa.R1, m.FD),
				isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
				isa.StoreImm(isa.SizeDW, isa.R10, -16, int32(r.Intn(100))),
				isa.Mov64Reg(isa.R2, isa.R10),
				isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
				isa.Mov64Reg(isa.R3, isa.R10),
				isa.Alu64Imm(isa.ALUAdd, isa.R3, -16),
				isa.Mov64Imm(isa.R4, 0),
				isa.Call(helpers.MapUpdateElem),
				isa.Mov64Imm(isa.R0, 0),
			}
		}
		return []isa.Instruction{isa.Mov64Imm(isa.R0, 0)}
	case 5:
		return []isa.Instruction{
			isa.Mov64Imm(isa.R0, int32(r.Uint32())),
			isa.Alu64Imm(isa.ALUAnd, isa.R0, 0xff),
		}
	case 6:
		// Context read at a random small offset.
		return []isa.Instruction{
			isa.LoadMem(isa.SizeW, isa.R0, isa.R1, int16(4*r.Intn(6))),
			isa.Alu64Imm(isa.ALUAnd, isa.R0, 1),
		}
	case 7:
		// A conditional over a helper result.
		return []isa.Instruction{
			isa.Call(helpers.GetPrandomU32),
			isa.JumpImm(isa.JGT, isa.R0, int32(r.Intn(1000)), 1),
			isa.Mov64Imm(isa.R0, 1),
			isa.Mov64Imm(isa.R0, 0),
		}
	case 8:
		// Atomic increment of a stack slot.
		return []isa.Instruction{
			isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
			isa.Mov64Reg(isa.R1, isa.R10),
			isa.Alu64Imm(isa.ALUAdd, isa.R1, -8),
			isa.Mov64Imm(isa.R2, 1),
			isa.Atomic(isa.SizeDW, isa.R1, isa.R2, 0, isa.AtomicAdd),
			isa.Mov64Imm(isa.R0, 0),
		}
	default:
		return []isa.Instruction{
			isa.Call(helpers.KtimeGetNS),
			isa.Alu64Imm(isa.ALURsh, isa.R0, int32(r.Intn(63))),
		}
	}
}

// randomValidInsn emits one structurally valid instruction with random
// operands — no state awareness at all.
func randomValidInsn(r *rand.Rand, pool []core.MapHandle, progLen int) isa.Instruction {
	reg := func() uint8 { return uint8(r.Intn(11)) } // includes R10
	wreg := func() uint8 { return uint8(r.Intn(10)) }
	switch r.Intn(10) {
	case 0:
		return isa.Mov64Imm(wreg(), int32(r.Uint32()))
	case 1:
		ops := []uint8{isa.ALUAdd, isa.ALUSub, isa.ALUMul, isa.ALUDiv, isa.ALUOr,
			isa.ALUAnd, isa.ALULsh, isa.ALURsh, isa.ALUMod, isa.ALUXor, isa.ALUArsh}
		return isa.Alu64Imm(ops[r.Intn(len(ops))], wreg(), int32(r.Uint32()>>20))
	case 2:
		return isa.Alu64Reg(isa.ALUAdd, wreg(), reg())
	case 3:
		sz := []uint8{isa.SizeB, isa.SizeH, isa.SizeW, isa.SizeDW}[r.Intn(4)]
		return isa.LoadMem(sz, wreg(), reg(), int16(r.Intn(64)-32))
	case 4:
		sz := []uint8{isa.SizeB, isa.SizeH, isa.SizeW, isa.SizeDW}[r.Intn(4)]
		return isa.StoreMem(sz, reg(), reg(), int16(r.Intn(64)-32))
	case 5:
		return isa.StoreImm(isa.SizeDW, reg(), int16(-8*(1+r.Intn(8))), int32(r.Uint32()))
	case 6:
		ops := []uint8{isa.JEQ, isa.JNE, isa.JGT, isa.JLT, isa.JSGE}
		// Random forward offset, frequently out of range.
		return isa.JumpImm(ops[r.Intn(len(ops))], wreg(), int32(r.Intn(100)), int16(r.Intn(progLen+2)))
	case 7:
		// Random helper id: often nonexistent or gated.
		return isa.Call(int32(r.Intn(200)))
	case 8:
		if len(pool) > 0 && r.Intn(2) == 0 {
			return isa.LoadMapFD(uint8(r.Intn(10)), pool[r.Intn(len(pool))].FD)
		}
		return isa.LoadImm64(wreg(), r.Uint64())
	default:
		return isa.Mov64Reg(wreg(), reg())
	}
}

// BuzzMode selects one of Buzzer's two strategies.
type BuzzMode int

// Buzzer modes.
const (
	// BuzzRandom is the fully random mode (~1% acceptance).
	BuzzRandom BuzzMode = iota
	// BuzzALUJmp is the ALU/JMP-heavy pointer-free mode (~97%
	// acceptance, but trivial programs).
	BuzzALUJmp
)

// Buzz is the Buzzer-like source.
type Buzz struct {
	Mode BuzzMode
}

// Name implements core.ProgramSource.
func (b Buzz) Name() string {
	if b.Mode == BuzzRandom {
		return "Buzzer(random)"
	}
	return "Buzzer"
}

// Generate implements core.ProgramSource.
func (b Buzz) Generate(r *rand.Rand, pool []core.MapHandle) *isa.Program {
	if b.Mode == BuzzRandom {
		return buzzRandom(r)
	}
	return buzzALUJmp(r, pool)
}

// buzzRandom emits nearly arbitrary instruction words (only the encoding
// grammar holds), so almost everything is rejected.
func buzzRandom(r *rand.Rand) *isa.Program {
	p := &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Name: "buzzer_rand"}
	// A sliver of random programs is trivially valid, matching the ~1%
	// acceptance the paper measured for this mode.
	if r.Intn(100) == 0 {
		p.Insns = []isa.Instruction{isa.Mov64Imm(isa.R0, int32(r.Intn(4))), isa.Exit()}
		return p
	}
	n := 2 + r.Intn(16)
	for i := 0; i < n; i++ {
		ins := isa.Instruction{
			Opcode: uint8(r.Intn(256)),
			Dst:    uint8(r.Intn(16)),
			Src:    uint8(r.Intn(16)),
			Off:    int16(r.Uint32()),
			Imm:    int32(r.Uint32()),
		}
		p.Insns = append(p.Insns, ins)
	}
	p.Insns = append(p.Insns, isa.Exit())
	return p
}

// buzzALUJmp emits the conservative mode: initialize registers, then long
// runs of ALU and small forward jumps. Occasionally (matching Buzzer's
// map-state checks) it adds a map lookup.
func buzzALUJmp(r *rand.Rand, pool []core.MapHandle) *isa.Program {
	p := &isa.Program{Type: isa.ProgTypeSocketFilter, GPLCompatible: true, Name: "buzzer_alu"}
	// Initialize R0-R5 so uninitialized-register rejects cannot happen.
	for reg := uint8(0); reg <= 5; reg++ {
		p.Insns = append(p.Insns, isa.Mov64Imm(reg, int32(r.Intn(1<<16))))
	}
	n := 6 + r.Intn(24)
	for i := 0; i < n; i++ {
		reg := uint8(r.Intn(6))
		switch r.Intn(8) {
		case 0, 1, 2, 3, 4: // ALU-dominant mix
			ops := []uint8{isa.ALUAdd, isa.ALUSub, isa.ALUMul, isa.ALUOr,
				isa.ALUAnd, isa.ALUXor, isa.ALULsh, isa.ALURsh}
			op := ops[r.Intn(len(ops))]
			imm := int32(r.Intn(1 << 10))
			if r.Intn(2) == 0 {
				if op == isa.ALULsh || op == isa.ALURsh {
					imm = int32(r.Intn(64))
				}
				p.Insns = append(p.Insns, isa.Alu64Imm(op, reg, imm))
			} else {
				if op == isa.ALULsh || op == isa.ALURsh {
					imm = int32(r.Intn(32))
				}
				p.Insns = append(p.Insns, isa.Alu32Imm(op, reg, imm))
			}
		case 5, 6: // small forward jump
			ops := []uint8{isa.JEQ, isa.JNE, isa.JGT, isa.JLT}
			p.Insns = append(p.Insns, isa.JumpImm(ops[r.Intn(len(ops))], reg, int32(r.Intn(256)), 1))
			p.Insns = append(p.Insns, isa.Mov64Imm(reg, int32(r.Intn(64))))
		default: // reg-reg ALU
			p.Insns = append(p.Insns, isa.Alu64Reg(isa.ALUAdd, reg, uint8(r.Intn(6))))
		}
	}
	// Occasional map interaction (Buzzer checks map state afterwards).
	if len(pool) > 0 && r.Intn(8) == 0 {
		m := pool[r.Intn(len(pool))]
		p.Insns = append(p.Insns,
			isa.LoadMapFD(isa.R1, m.FD),
			isa.Mov64Reg(isa.R2, isa.R10),
			isa.Alu64Imm(isa.ALUAdd, isa.R2, -8),
			isa.StoreImm(isa.SizeDW, isa.R10, -8, 0),
			isa.Call(helpers.MapLookupElem),
		)
	}
	p.Insns = append(p.Insns, isa.Mov64Imm(isa.R0, 0), isa.Exit())
	return p
}
