package verifier

import (
	"fmt"

	"repro/internal/btf"
	"repro/internal/coverage"
	"repro/internal/helpers"
	"repro/internal/isa"
	"repro/internal/maps"
)

// Precomputed coverage sites. Every instrumentation point records a
// dense coverage.ID interned once at package init, so a hit is an array
// increment with no string hashing. The dynamic sites —
// "jmp:<op>:<outcome>", "alu:scalar:<op>",
// "mem:map_value:<type>:<size>:<store>", "call:<helper>" and friends —
// have finite domains known at init (opcode tables, maps.AllTypes, the
// ctx layouts, the standard helper/kfunc/BTF registries), so their IDs
// are tabled here and the hit becomes a table lookup. Lookups that miss
// (custom registries in tests) fall back to interning the string, as
// does the "reject:<word>" site.

// Constant sites on the per-instruction hot path.
var (
	sitePruneHit      = coverage.Intern("prune:hit")
	sitePruneLoop     = coverage.Intern("prune:loop")
	siteExitMain      = coverage.Intern("exit:main")
	siteExitSubprog   = coverage.Intern("exit:subprog")
	siteJmpJA         = coverage.Intern("jmp:ja")
	siteJmpInfeasible = coverage.Intern("jmp:infeasible_both")
	siteMemCtx        = coverage.Intern("mem:ctx")
	siteMemPkt        = coverage.Intern("mem:pkt")
	siteMemAtomic     = coverage.Intern("mem:atomic")
	siteAluMovImm     = coverage.Intern("alu:mov_imm")
	siteAluMovReg     = coverage.Intern("alu:mov_reg")
	siteAluMov32Reg   = coverage.Intern("alu:mov32_reg")
	siteAluPtrConst   = coverage.Intern("alu:ptr_const")
	siteLdImm64Const  = coverage.Intern("ld_imm64:const")
)

// The remaining constant sites.
var (
	siteAluEnd                      = coverage.Intern("alu:end")
	siteAluMovsx                    = coverage.Intern("alu:movsx")
	siteAluNeg                      = coverage.Intern("alu:neg")
	siteAluPtr32Reject              = coverage.Intern("alu:ptr32_reject")
	siteAluPtrOpReject              = coverage.Intern("alu:ptr_op_reject")
	siteAluPtrOrNullAllowedBug      = coverage.Intern("alu:ptr_or_null_allowed_bug")
	siteAluPtrOrNullReject          = coverage.Intern("alu:ptr_or_null_reject")
	siteAluPtrPtrReject             = coverage.Intern("alu:ptr_ptr_reject")
	siteAluPtrSubPtr                = coverage.Intern("alu:ptr_sub_ptr")
	siteAluPtrVarReject             = coverage.Intern("alu:ptr_var_reject")
	siteAluScalarPlusPtr            = coverage.Intern("alu:scalar_plus_ptr")
	siteAluScalarPtrReject          = coverage.Intern("alu:scalar_ptr_reject")
	siteAttachContentionAllowedBug5 = coverage.Intern("attach:contention_allowed_bug5")
	siteAttachContentionRejected    = coverage.Intern("attach:contention_rejected")
	siteAttachPrintkAllowedBug4     = coverage.Intern("attach:printk_allowed_bug4")
	siteAttachPrintkRejected        = coverage.Intern("attach:printk_rejected")
	siteAttachSignalAllowedBug6     = coverage.Intern("attach:signal_allowed_bug6")
	siteAttachSignalRejected        = coverage.Intern("attach:signal_rejected")
	siteCallBadMemArg               = coverage.Intern("call:bad_mem_arg")
	siteCallGated                   = coverage.Intern("call:gated")
	siteCallHelperAcquire           = coverage.Intern("call:helper_acquire")
	siteCallMapFuncIncompat         = coverage.Intern("call:map_func_incompat")
	siteCallMapValueOob             = coverage.Intern("call:map_value_oob")
	siteCallMemOrNull               = coverage.Intern("call:mem_or_null")
	siteCallPseudo                  = coverage.Intern("call:pseudo")
	siteCallReleaseUnowned          = coverage.Intern("call:release_unowned")
	siteCallRetBtfTask              = coverage.Intern("call:ret_btf_task")
	siteCallRetInt                  = coverage.Intern("call:ret_int")
	siteCallRetMapValueOrNull       = coverage.Intern("call:ret_map_value_or_null")
	siteCallRetMemOrNull            = coverage.Intern("call:ret_mem_or_null")
	siteCallStackOob                = coverage.Intern("call:stack_oob")
	siteCallStackUninit             = coverage.Intern("call:stack_uninit")
	siteCallUnboundedSize           = coverage.Intern("call:unbounded_size")
	siteCallUnknown                 = coverage.Intern("call:unknown")
	siteExitUnreleasedRef           = coverage.Intern("exit:unreleased_ref")
	siteJmpNullCheck                = coverage.Intern("jmp:null_check")
	siteJmpNullprop                 = coverage.Intern("jmp:nullprop")
	siteJmpNullpropBug1             = coverage.Intern("jmp:nullprop_bug1")
	siteJmpNullpropFiltered         = coverage.Intern("jmp:nullprop_filtered")
	siteJmpPktRange                 = coverage.Intern("jmp:pkt_range")
	siteKfuncAcquire                = coverage.Intern("kfunc:acquire")
	siteKfuncBadarg                 = coverage.Intern("kfunc:badarg")
	siteKfuncBug3Collapse           = coverage.Intern("kfunc:bug3_collapse")
	siteKfuncNullArg                = coverage.Intern("kfunc:null_arg")
	siteKfuncReleaseUnowned         = coverage.Intern("kfunc:release_unowned")
	siteKfuncUnknown                = coverage.Intern("kfunc:unknown")
	siteLdImm64BtfId                = coverage.Intern("ld_imm64:btf_id")
	siteLdImm64MapFd                = coverage.Intern("ld_imm64:map_fd")
	siteLdImm64MapValue             = coverage.Intern("ld_imm64:map_value")
	siteMemAtomicBadBase            = coverage.Intern("mem:atomic_bad_base")
	siteMemBtf                      = coverage.Intern("mem:btf")
	siteMemBtfBug2Limit             = coverage.Intern("mem:btf_bug2_limit")
	siteMemBtfOob                   = coverage.Intern("mem:btf_oob")
	siteMemBtfPtrField              = coverage.Intern("mem:btf_ptr_field")
	siteMemBtfScalar                = coverage.Intern("mem:btf_scalar")
	siteMemBtfStore                 = coverage.Intern("mem:btf_store")
	siteMemCtxBadfield              = coverage.Intern("mem:ctx_badfield")
	siteMemCtxBtfTask               = coverage.Intern("mem:ctx_btf_task")
	siteMemCtxOob                   = coverage.Intern("mem:ctx_oob")
	siteMemCtxPktData               = coverage.Intern("mem:ctx_pkt_data")
	siteMemCtxPktEnd                = coverage.Intern("mem:ctx_pkt_end")
	siteMemCtxRo                    = coverage.Intern("mem:ctx_ro")
	siteMemCtxScalar                = coverage.Intern("mem:ctx_scalar")
	siteMemCtxWrite                 = coverage.Intern("mem:ctx_write")
	siteMemMapValueNeg              = coverage.Intern("mem:map_value_neg")
	siteMemMapValueOob              = coverage.Intern("mem:map_value_oob")
	siteMemMaybeNull                = coverage.Intern("mem:maybe_null")
	siteMemPktOob                   = coverage.Intern("mem:pkt_oob")
	siteMemPktRo                    = coverage.Intern("mem:pkt_ro")
	siteMemRegion                   = coverage.Intern("mem:region")
	siteMemScalarBase               = coverage.Intern("mem:scalar_base")
	siteMemStackFill                = coverage.Intern("mem:stack_fill")
	siteMemStackOob                 = coverage.Intern("mem:stack_oob")
	siteMemStackPartialSpill        = coverage.Intern("mem:stack_partial_spill")
	siteMemStackSpill               = coverage.Intern("mem:stack_spill")
	siteMemStackStore               = coverage.Intern("mem:stack_store")
	siteMemStackUninit              = coverage.Intern("mem:stack_uninit")
	siteReadUninit                  = coverage.Intern("read_uninit")
	siteRejectStructural            = coverage.Intern("reject:structural")
	siteWriteFp                     = coverage.Intern("write_fp")
)

const (
	// maxJmpOutcome covers branchUnknown/branchAlwaysTaken/branchNeverTaken.
	maxJmpOutcome = 3
)

var (
	// jmpOutcomeSites[op][outcome] = ID("jmp:<op>:<outcome>").
	jmpOutcomeSites [256][maxJmpOutcome]coverage.ID
	jmpOutcomeKnown [256]bool
	// aluScalarSites[op] = ID("alu:scalar:<op>").
	aluScalarSites [256]coverage.ID
	aluScalarKnown [256]bool
	// Per-RegType sites; RegType values are small consecutive ints.
	ptrVarSites  map[RegType]coverage.ID // "alu:ptr_var:<type>"
	badBaseSites map[RegType]coverage.ID // "mem:bad_base:<type>"
	// stackAccessSites[size][isStore] = ID("mem:stack:<size>:<bool>").
	stackAccessSites [9][2]coverage.ID
	stackAccessKnown [9]bool
	// mapValueSites[key] = ID("mem:map_value:<type>:<size>:<bool>").
	mapValueSites map[mapValueKey]coverage.ID
	// mapArgSites[t] = ID("call:map_arg:<type>").
	mapArgSites map[maps.Type]coverage.ID
	// ctxFieldSites[key] = ID("mem:ctx_field:<progtype>:<field>").
	ctxFieldSites map[ctxFieldKey]coverage.ID
	// Name-keyed tables for the standard registries.
	helperCallSites   map[string]coverage.ID // "call:<name>"
	helperBadArgSites map[string]coverage.ID // "call:badarg:<name>"
	kfuncCallSites    map[string]coverage.ID // "kfunc:<name>"
	btfStructSites    map[string]coverage.ID // "mem:btf:<name>"
)

type mapValueKey struct {
	t       maps.Type
	size    int
	isStore bool
}

type ctxFieldKey struct {
	t    isa.ProgramType
	name string
}

func init() {
	for op, name := range jmpOpNames {
		for o := 0; o < maxJmpOutcome; o++ {
			jmpOutcomeSites[op][o] = coverage.Intern("jmp:" + name + ":" + outcomeName(branchOutcome(o)))
		}
		jmpOutcomeKnown[op] = true
	}
	for op, name := range aluOpNames {
		aluScalarSites[op] = coverage.Intern("alu:scalar:" + name)
		aluScalarKnown[op] = true
	}

	regTypes := []RegType{
		NotInit, Scalar, PtrToCtx, ConstPtrToMap, PtrToMapValue,
		PtrToStack, PtrToPacket, PtrToPacketEnd, PtrToBTFID, PtrToMem,
	}
	ptrVarSites = make(map[RegType]coverage.ID, len(regTypes))
	badBaseSites = make(map[RegType]coverage.ID, len(regTypes))
	for _, t := range regTypes {
		ptrVarSites[t] = coverage.Intern("alu:ptr_var:" + t.String())
		badBaseSites[t] = coverage.Intern("mem:bad_base:" + t.String())
	}

	sizes := []int{1, 2, 4, 8}
	for _, sz := range sizes {
		stackAccessSites[sz][0] = coverage.Intern(fmt.Sprintf("mem:stack:%d:%v", sz, false))
		stackAccessSites[sz][1] = coverage.Intern(fmt.Sprintf("mem:stack:%d:%v", sz, true))
		stackAccessKnown[sz] = true
	}

	mapValueSites = make(map[mapValueKey]coverage.ID, len(maps.AllTypes)*len(sizes)*2)
	mapArgSites = make(map[maps.Type]coverage.ID, len(maps.AllTypes))
	for _, t := range maps.AllTypes {
		mapArgSites[t] = coverage.Intern("call:map_arg:" + t.String())
		for _, sz := range sizes {
			for _, store := range []bool{false, true} {
				mapValueSites[mapValueKey{t, sz, store}] =
					coverage.Intern(fmt.Sprintf("mem:map_value:%s:%d:%v", t, sz, store))
			}
		}
	}

	ctxFieldSites = make(map[ctxFieldKey]coverage.ID)
	for t, layout := range ctxLayouts {
		for _, f := range layout.Fields {
			ctxFieldSites[ctxFieldKey{t, f.Name}] =
				coverage.Intern("mem:ctx_field:" + t.String() + ":" + f.Name)
		}
	}

	reg := helpers.NewRegistry()
	ids := reg.IDs()
	helperCallSites = make(map[string]coverage.ID, len(ids))
	helperBadArgSites = make(map[string]coverage.ID, len(ids))
	for _, id := range ids {
		h := reg.ByID(id)
		helperCallSites[h.Name] = coverage.Intern("call:" + h.Name)
		helperBadArgSites[h.Name] = coverage.Intern("call:badarg:" + h.Name)
	}

	kreg := btf.NewKernelRegistry()
	kfuncCallSites = make(map[string]coverage.ID)
	for _, id := range kreg.Kfuncs() {
		k := kreg.Kfunc(id)
		kfuncCallSites[k.Name] = coverage.Intern("kfunc:" + k.Name)
	}
	btfStructSites = make(map[string]coverage.ID)
	for _, id := range kreg.StructIDs() {
		s := kreg.Struct(id)
		btfStructSites[s.Name] = coverage.Intern("mem:btf:" + s.Name)
	}
}

// covs records a precomputed site.
func (e *env) covs(s coverage.ID) { e.lcov.Hit(s) }

// covName records a name-keyed site from table, falling back to the
// dynamic string for names outside the standard registries.
func (e *env) covName(table map[string]coverage.ID, prefix, name string) {
	if e.lcov == nil {
		return
	}
	if s, ok := table[name]; ok {
		e.lcov.Hit(s)
		return
	}
	e.lcov.HitLoc(prefix + name)
}

func (e *env) covJmpOutcome(op uint8, o branchOutcome) {
	if e.lcov == nil {
		return
	}
	if jmpOutcomeKnown[op] && int(o) < maxJmpOutcome {
		e.lcov.Hit(jmpOutcomeSites[op][o])
		return
	}
	e.lcov.HitLoc("jmp:" + jmpOpName(op) + ":" + outcomeName(o))
}

func (e *env) covAluScalar(op uint8) {
	if e.lcov == nil {
		return
	}
	if aluScalarKnown[op] {
		e.lcov.Hit(aluScalarSites[op])
		return
	}
	e.lcov.HitLoc("alu:scalar:" + aluOpName(op))
}

func (e *env) covPtrVar(t RegType) {
	if e.lcov == nil {
		return
	}
	if s, ok := ptrVarSites[t]; ok {
		e.lcov.Hit(s)
		return
	}
	e.lcov.HitLoc("alu:ptr_var:" + t.String())
}

func (e *env) covBadBase(t RegType) {
	if e.lcov == nil {
		return
	}
	if s, ok := badBaseSites[t]; ok {
		e.lcov.Hit(s)
		return
	}
	e.lcov.HitLoc("mem:bad_base:" + t.String())
}

func (e *env) covStackAccess(size int, isStore bool) {
	if e.lcov == nil {
		return
	}
	if size >= 1 && size < len(stackAccessSites) && stackAccessKnown[size] {
		idx := 0
		if isStore {
			idx = 1
		}
		e.lcov.Hit(stackAccessSites[size][idx])
		return
	}
	e.lcov.HitLoc(fmt.Sprintf("mem:stack:%d:%v", size, isStore))
}

func (e *env) covMapValueAccess(t maps.Type, size int, isStore bool) {
	if e.lcov == nil {
		return
	}
	if s, ok := mapValueSites[mapValueKey{t, size, isStore}]; ok {
		e.lcov.Hit(s)
		return
	}
	e.lcov.HitLoc(fmt.Sprintf("mem:map_value:%s:%d:%v", t, size, isStore))
}

func (e *env) covCtxField(t isa.ProgramType, name string) {
	if e.lcov == nil {
		return
	}
	if s, ok := ctxFieldSites[ctxFieldKey{t, name}]; ok {
		e.lcov.Hit(s)
		return
	}
	e.lcov.HitLoc("mem:ctx_field:" + t.String() + ":" + name)
}

func (e *env) covMapArg(t maps.Type) {
	if e.lcov == nil {
		return
	}
	if s, ok := mapArgSites[t]; ok {
		e.lcov.Hit(s)
		return
	}
	e.lcov.HitLoc("call:map_arg:" + t.String())
}
