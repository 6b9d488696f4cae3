package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/coverage"
	"repro/internal/kernel"
)

// TestStatsMergeExhaustive walks every Stats field by reflection, builds a
// source Stats with only that field populated, merges it into a fresh
// destination, and fails when the field did not survive. The point is to
// make "add a field to Stats, forget Stats.Merge" a test failure instead
// of a silent cross-shard aggregation bug — exactly how the cache counters
// could have been lost in parallel campaigns.
func TestStatsMergeExhaustive(t *testing.T) {
	// Identity fields describe what the campaign is, not what it measured;
	// Merge deliberately leaves the destination's values in place.
	exempt := map[string]bool{
		"Tool":    true,
		"Version": true,
	}

	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if exempt[f.Name] {
			continue
		}
		src := NewStats("merge-test", kernel.BPFNext)
		populateStatsField(t, f.Name, reflect.ValueOf(src).Elem().Field(i))

		dst := NewStats("merge-test", kernel.BPFNext)
		dst.Merge(src)

		if statsFieldIsZero(reflect.ValueOf(dst).Elem().Field(i)) {
			t.Errorf("Stats.Merge drops %s: still zero after merging a populated source", f.Name)
		}
	}
}

// populateStatsField sets one Stats field to a minimal non-zero value. A
// new field with an unhandled kind fails the test loudly — extend this
// helper (and Merge) together.
func populateStatsField(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	if v.Type() == reflect.TypeOf((*coverage.Map)(nil)) {
		m := coverage.NewMap()
		m.HitLoc("merge-test:site")
		v.Set(reflect.ValueOf(m))
		return
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Array:
		for j := 0; j < v.Len(); j++ {
			v.Index(j).Set(sampleValue(t, name, v.Type().Elem()))
		}
	case reflect.Slice:
		v.Set(reflect.Append(v, sampleValue(t, name, v.Type().Elem())))
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		m.SetMapIndex(sampleValue(t, name, v.Type().Key()), sampleValue(t, name, v.Type().Elem()))
		v.Set(m)
	default:
		t.Fatalf("Stats.%s has kind %v the merge test cannot populate; teach populateStatsField (and Stats.Merge) about it", name, v.Kind())
	}
}

// sampleValue builds a non-nil element/key/value of an arbitrary type.
func sampleValue(t *testing.T, name string, typ reflect.Type) reflect.Value {
	t.Helper()
	switch typ.Kind() {
	case reflect.Int, reflect.Int64:
		return reflect.ValueOf(1).Convert(typ)
	case reflect.String:
		return reflect.ValueOf("merge-test").Convert(typ)
	case reflect.Struct:
		return reflect.Zero(typ)
	case reflect.Ptr:
		return reflect.New(typ.Elem())
	default:
		t.Fatalf("Stats.%s: no sample for kind %v; extend sampleValue", name, typ.Kind())
		return reflect.Value{}
	}
}

// statsFieldIsZero reports whether a merged field still looks unmerged.
func statsFieldIsZero(v reflect.Value) bool {
	if v.Type() == reflect.TypeOf((*coverage.Map)(nil)) {
		m := v.Interface().(*coverage.Map)
		return m == nil || m.Count() == 0
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		return v.Int() == 0
	case reflect.Slice, reflect.Map:
		return v.Len() == 0
	case reflect.Array:
		// Every element was populated; losing any one is a dropped merge.
		for j := 0; j < v.Len(); j++ {
			if v.Index(j).IsZero() {
				return true
			}
		}
		return false
	default:
		return v.IsZero()
	}
}

// TestOnGlobalAxis checks the one shard-to-global translation both the
// single-process merge and the distributed coordinator use: every
// iteration-indexed field maps local -> local*shards+shard, harness
// crashes are attributed to the shard, and the input stays untouched.
func TestOnGlobalAxis(t *testing.T) {
	const shard, shards = 2, 5
	key := BugKey{ID: 3, Indicator: kernel.Indicator1, Kind: "kasan:oob"}
	src := NewStats("axis", kernel.BPFNext)
	src.Bugs[key] = &BugRecord{ID: 3, Kind: "kasan:oob", FoundAt: 10}
	src.UnattributedSamples = []BugRecord{{Kind: "x", FoundAt: 11}}
	src.TimeoutSamples = []TimeoutRecord{{Stage: WatchdogVerify, FoundAt: 12}}
	src.HarnessCrashes = []HarnessCrash{{Iteration: 13}}
	src.Curve = []CurvePoint{{Iteration: 14, Branches: 3}, {Iteration: 15, Branches: 4}}
	before := fmt.Sprintf("%+v %+v", *src, *src.Bugs[key])

	got := src.OnGlobalAxis(shard, shards)
	g := func(local int) int { return local*shards + shard }
	if got.Bugs[key].FoundAt != g(10) {
		t.Errorf("bug FoundAt = %d, want %d", got.Bugs[key].FoundAt, g(10))
	}
	if got.UnattributedSamples[0].FoundAt != g(11) {
		t.Errorf("unattributed FoundAt = %d, want %d", got.UnattributedSamples[0].FoundAt, g(11))
	}
	if got.TimeoutSamples[0].FoundAt != g(12) {
		t.Errorf("timeout FoundAt = %d, want %d", got.TimeoutSamples[0].FoundAt, g(12))
	}
	if h := got.HarnessCrashes[0]; h.Iteration != g(13) || h.Shard != shard {
		t.Errorf("harness crash = iteration %d shard %d, want %d shard %d", h.Iteration, h.Shard, g(13), shard)
	}
	want := []CurvePoint{{Iteration: g(14), Branches: 3}, {Iteration: g(15), Branches: 4}}
	if !reflect.DeepEqual(got.Curve, want) {
		t.Errorf("curve = %+v, want %+v", got.Curve, want)
	}
	if after := fmt.Sprintf("%+v %+v", *src, *src.Bugs[key]); after != before {
		t.Errorf("input modified:\nbefore %s\nafter  %s", before, after)
	}
}
