package verifier

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/maps"
)

// fixupProgram is the post-verification rewrite phase (the kernel's
// resolve_pseudo_ldimm64 results + convert_ctx_accesses + do_misc_fixups
// rolled together for this simulator), applied to a clone of prog:
//
//   - pseudo map-fd and map-value loads are resolved to the map object's
//     kernel address / the value's address;
//   - pseudo BTF-id loads are resolved to the kernel variable's address;
//   - loads the checker validated through PTR_TO_BTF_ID (probeMem) are
//     marked as exception-handled probe reads.
//
// Instruction count is unchanged, so RangeCheck indices remain valid. The
// sanitizer (internal/sanitizer) runs after this phase, exactly as the
// paper inserts its instrumentation "at the end of the rewriting phase".
//
// It is the only fixup: scratch verification turns a failure into a
// rejection, and a cache hit re-derives its fixed-up program here and
// demotes itself to a miss on failure. On failure it returns a nil
// program, the offending instruction, and the rejection message.
func fixupProgram(prog *isa.Program, cfg *Config, probeMem map[int]bool) (*isa.Program, int, string) {
	out := prog.Clone()
	for i := range out.Insns {
		ins := &out.Insns[i]
		if !ins.IsWide() {
			continue
		}
		switch ins.Src {
		case isa.PseudoMapFD:
			m := cfg.mapByFD(int32(ins.Imm64))
			if m == nil {
				return nil, i, fmt.Sprintf("fixup: stale map fd %d", int32(ins.Imm64))
			}
			rewriteImm64(ins, m.KernAddr)
		case isa.PseudoMapValue:
			m := cfg.mapByFD(int32(uint32(ins.Imm64)))
			if m == nil || m.Type != maps.Array {
				return nil, i, "fixup: stale map fd"
			}
			off := uint64(uint32(ins.Imm64 >> 32))
			rewriteImm64(ins, m.ValueAllocation().BaseAddr+off)
		case isa.PseudoBTFID:
			if cfg.BTFVarAddr == nil {
				return nil, i, "fixup: no btf var resolver"
			}
			rewriteImm64(ins, cfg.BTFVarAddr(int32(ins.Imm64)))
		}
	}
	for i := range probeMem {
		if ins := &out.Insns[i]; ins.IsMemLoad() {
			ins.Meta.ProbeMem = true
		}
	}
	return out, 0, ""
}

func rewriteImm64(ins *isa.Instruction, addr uint64) {
	ins.Src = 0
	ins.Imm64 = addr
	ins.Imm = int32(uint32(addr))
	ins.Meta.RewriteEmitted = false
}
