package cpusim

import (
	"reflect"
	"testing"

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
// accounting to what its entries actually hold. A co-run at both tiers
// plus an isolated run publishes "cpusim/priv" entries only — the
// simulator's one memo domain — and every one must be charged exactly its
// backing array plus the fixed allowance.
func TestMemoEntriesChargeWhatTheyRetain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PrefetchDegree = 2
	apps := []App{{Workload: computeBound("friendly"), Threads: 8}, {Workload: memoryBound("hog"), Threads: 8}}
	memo := simcache.MustNew(64 << 20)
	for _, fid := range []phasesum.Fidelity{phasesum.Exact, phasesum.Fast} {
		if _, _, err := RunMemoFidelity(cfg, memo, apps, fid); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RunMemo(cfg, memo, apps[:1]); err != nil {
		t.Fatal(err)
	}

	entries := 0
	memo.Items(func(key simcache.Key, val any, bytes int64) bool {
		entries++
		mem, ok := val.([]phaseMem)
		if key.Domain != memoDomainPriv || !ok {
			t.Fatalf("%s: unexpected entry of type %T; cpusim has one memo domain", key.Domain, val)
		}
		if want := privEntryBytes + backingBytes(reflect.ValueOf(mem)); bytes != want {
			t.Errorf("%s slot %d: memo recorded %d bytes, backing array plus allowance = %d", key.Domain, key.Slot, bytes, want)
		}
		return true
	})
	if entries == 0 {
		t.Error("memo holds no entries; the fixture no longer covers the value type")
	}
}
