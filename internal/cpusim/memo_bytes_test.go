package cpusim

import (
	"reflect"
	"testing"

	"mapc/internal/memsim"
	"mapc/internal/phasesum"
	"mapc/internal/simcache"
)

// backingBytes sums cap × element size over every slice reachable from v,
// descending into slice elements and struct fields: the bytes a memo
// value's backing arrays retain, measured independently of its bytes().
func backingBytes(v reflect.Value) int64 {
	var n int64
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			n += backingBytes(v.Field(i))
		}
	case reflect.Slice:
		n = int64(v.Cap()) * int64(v.Type().Elem().Size())
		for i := 0; i < v.Len(); i++ {
			n += backingBytes(v.Index(i))
		}
	}
	return n
}

// TestMemoEntriesChargeWhatTheyRetain pins the memo's resident-byte
// accounting to what its entries actually hold. A co-run of a cache-
// friendly app (most references hit L1/L2) with a memory-bound one, at
// both tiers plus an isolated run, publishes "cpusim/priv", "cpusim/iso"
// and "cpusim/sum" entries; every one must be charged exactly its backing
// arrays plus the type's fixed allowance, and every LLC-bound list must be
// stored at its exact length rather than in the worst-case replay buffer.
func TestMemoEntriesChargeWhatTheyRetain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchDegree = 2
	friendly := computeBound("friendly")
	apps := []App{{Workload: friendly, Threads: 8}, {Workload: memoryBound("hog"), Threads: 8}}
	memo := simcache.MustNew(64 << 20)
	for _, fid := range []phasesum.Fidelity{phasesum.Exact, phasesum.Fast} {
		if _, _, err := RunMemoFidelity(cfg, memo, apps, fid); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RunMemo(cfg, memo, apps[:1]); err != nil {
		t.Fatal(err)
	}

	worstCase := 0 // every sampled reference of friendly missing L2
	for pi := range friendly.Phases {
		if refs := friendly.Phases[pi].MemRefs(); refs > 0 {
			worstCase += memsim.SampleRefs(refs)
		}
	}
	counts := map[string]int{}
	memo.Items(func(key simcache.Key, val any, bytes int64) bool {
		counts[key.Domain]++
		var want, got int64
		switch v := val.(type) {
		case privResult:
			if cap(v.bound) != len(v.bound) {
				t.Errorf("%s slot %d: LLC-bound list holds %d addresses in a %d-address buffer", key.Domain, key.Slot, len(v.bound), cap(v.bound))
			}
			if key.Workload == friendly.Fingerprint() && len(v.bound) >= worstCase {
				t.Errorf("%s slot %d: %d of %d references reach the LLC; the fixture needs L2 hits", key.Domain, key.Slot, len(v.bound), worstCase)
			}
			got, want = v.bytes(), privEntryBytes+backingBytes(reflect.ValueOf(v))
		case isoResult:
			got, want = v.bytes(), isoEntryBytes+backingBytes(reflect.ValueOf(v))
		case phasesum.Summary:
			got, want = v.Bytes(), 64+backingBytes(reflect.ValueOf(v)) // Summary.Bytes's allowance
		default:
			t.Fatalf("%s: unexpected value type %T", key.Domain, val)
		}
		if bytes != got {
			t.Errorf("%s slot %d: memo recorded %d bytes, bytes() reports %d", key.Domain, key.Slot, bytes, got)
		}
		if got != want {
			t.Errorf("%s slot %d: bytes() = %d, backing arrays plus allowance = %d", key.Domain, key.Slot, got, want)
		}
		return true
	})
	for _, d := range []string{memoDomainPriv, memoDomainIso, memoDomainSum} {
		if counts[d] == 0 {
			t.Errorf("memo holds no %s entry (%v); the fixture no longer covers that value type", d, counts)
		}
	}
}
