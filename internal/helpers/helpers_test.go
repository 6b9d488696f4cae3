package helpers

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"repro/internal/isa"
	"repro/internal/kmem"
)

func TestRegistryCompleteness(t *testing.T) {
	r := NewRegistry()
	ids := r.IDs()
	if len(ids) < 25 {
		t.Fatalf("registry has only %d helpers", len(ids))
	}
	seen := map[int32]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate helper id %d", id)
		}
		seen[id] = true
		h := r.ByID(id)
		if h == nil || h.Name == "" || h.Impl == nil {
			t.Errorf("helper %d incomplete: %+v", id, h)
		}
		if len(h.Args) > 5 {
			t.Errorf("helper %s has %d args", h.Name, len(h.Args))
		}
		// Every ArgPtrToMem/ArgPtrToUninitMem must be followed by
		// ArgSize so the verifier can bound the access.
		for i, at := range h.Args {
			if at == ArgPtrToMem || at == ArgPtrToUninitMem {
				if i+1 >= len(h.Args) || h.Args[i+1] != ArgSize {
					t.Errorf("helper %s: mem arg %d lacks a size arg", h.Name, i)
				}
			}
		}
	}
	if r.ByID(424242) != nil {
		t.Error("unknown id resolved")
	}
}

func TestGating(t *testing.T) {
	r := NewRegistry()
	printk := r.ByID(TracePrintk)
	if err := printk.AllowedFor(isa.ProgTypeKprobe, true); err != nil {
		t.Errorf("printk from GPL kprobe: %v", err)
	}
	if err := printk.AllowedFor(isa.ProgTypeKprobe, false); err == nil {
		t.Error("printk allowed without GPL")
	}
	if err := printk.AllowedFor(isa.ProgTypeSocketFilter, true); err == nil {
		t.Error("printk allowed from socket filter")
	}
	lookup := r.ByID(MapLookupElem)
	for _, pt := range isa.AllProgramTypes {
		if err := lookup.AllowedFor(pt, false); err != nil {
			t.Errorf("map_lookup_elem gated from %s: %v", pt, err)
		}
	}
}

func TestAsanIDCodec(t *testing.T) {
	for _, size := range []int{1, 2, 4, 8} {
		kind, got, ok := IsAsanID(AsanLoadID(size))
		if !ok || kind != 'l' || got != size {
			t.Errorf("load size %d: kind=%c size=%d ok=%v", size, kind, got, ok)
		}
		kind, got, ok = IsAsanID(AsanStoreID(size))
		if !ok || kind != 's' || got != size {
			t.Errorf("store size %d: kind=%c size=%d ok=%v", size, kind, got, ok)
		}
	}
	if kind, _, ok := IsAsanID(AsanRangeViolation); !ok || kind != 'r' {
		t.Error("range violation id not recognized")
	}
	if _, _, ok := IsAsanID(MapLookupElem); ok {
		t.Error("ordinary helper id matched asan range")
	}
	defer func() {
		if recover() == nil {
			t.Error("AsanLoadID(3) did not panic")
		}
	}()
	AsanLoadID(3)
}

func TestErrno(t *testing.T) {
	if got := Errno(ENOENT); int64(got) != -2 {
		t.Errorf("Errno(ENOENT) = %d", int64(got))
	}
}

func TestRefFlagsConsistent(t *testing.T) {
	r := NewRegistry()
	res := r.ByID(RingbufReserve)
	if !res.AcquiresRef || res.Ret != RetMemOrNull {
		t.Errorf("ringbuf_reserve flags: %+v", res)
	}
	for _, id := range []int32{RingbufSubmit, RingbufDiscard} {
		h := r.ByID(id)
		if !h.ReleasesRef || h.Ret != RetVoid {
			t.Errorf("%s flags: %+v", h.Name, h)
		}
	}
	// No other helper releases references.
	for _, id := range r.IDs() {
		h := r.ByID(id)
		if h.ReleasesRef && id != RingbufSubmit && id != RingbufDiscard {
			t.Errorf("unexpected ReleasesRef on %s", h.Name)
		}
	}
}

// untouchedEnv satisfies Env for helper calls that must fail before
// touching the environment: any Env method call panics.
type untouchedEnv struct{ Env }

// TestGetCurrentCommNegativeSize: a negative size reaches run time only
// through an armed verifier bug. The helper must report it as a KASAN
// wild access (an indicator #1 finding), not panic in makeslice, which
// panic containment would turn into a harness crash hiding the finding.
func TestGetCurrentCommNegativeSize(t *testing.T) {
	h := NewRegistry().ByID(GetCurrentComm)
	size := int64(-1047894685)
	_, err := h.Impl(untouchedEnv{}, [5]uint64{0x1000, uint64(size)})
	var rep *kmem.Report
	if !errors.As(err, &rep) || rep.Kind != kmem.ReportWild {
		t.Fatalf("err = %v, want a wild-access KASAN report", err)
	}
}

// boundedEnv accepts sequential writes up to limit bytes and reports an
// out-of-bounds store past them.
type boundedEnv struct {
	Env
	limit   int
	written []byte
}

func (e *boundedEnv) WriteMem(addr uint64, data []byte) error {
	if len(e.written)+len(data) > e.limit {
		return &kmem.Report{Kind: kmem.ReportOOB, Addr: addr, Size: len(data), Write: true}
	}
	e.written = append(e.written, data...)
	return nil
}

// TestGetCurrentCommHugeSize: an oversized destination fails at the first
// out-of-bounds store after writing the zero-padded comm, without the
// harness first allocating a buffer of the (verifier-bug-sized) length.
func TestGetCurrentCommHugeSize(t *testing.T) {
	h := NewRegistry().ByID(GetCurrentComm)
	env := &boundedEnv{limit: 16}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := h.Impl(env, [5]uint64{0x1000, 64 << 20})
	runtime.ReadMemStats(&after)
	var rep *kmem.Report
	if !errors.As(err, &rep) || rep.Kind != kmem.ReportOOB {
		t.Fatalf("err = %v, want the out-of-bounds store report", err)
	}
	if want := []byte("bvf-task\x00\x00\x00\x00\x00\x00\x00\x00"); !bytes.Equal(env.written, want) {
		t.Errorf("written = %q, want %q", env.written, want)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("allocated %d bytes for a write that fails after 16", n)
	}
}
