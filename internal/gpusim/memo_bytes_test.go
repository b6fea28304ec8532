package gpusim

import (
	"reflect"
	"testing"

	"mapc/internal/phasesum"
	"mapc/internal/simcache"
	"mapc/internal/trace"
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
// accounting to what its entries actually hold: after an exact and a fast
// co-run and an isolated run, every "gpusim/stream", "gpusim/iso" and
// "gpusim/sum" entry is recorded at its bytes(), and bytes() is exactly
// the entry's backing arrays plus the type's fixed allowance.
func TestMemoEntriesChargeWhatTheyRetain(t *testing.T) {
	cfg := DefaultConfig()
	ws := []*trace.Workload{memKernel("a"), computeKernel("b")}
	memo := simcache.MustNew(64 << 20)
	for _, fid := range []phasesum.Fidelity{phasesum.Exact, phasesum.Fast} {
		if _, _, err := RunMemoSharesFidelity(cfg, memo, ws, nil, fid); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RunMemo(cfg, memo, ws[:1]); err != nil {
		t.Fatal(err)
	}

	counts := map[string]int{}
	memo.Items(func(key simcache.Key, val any, bytes int64) bool {
		counts[key.Domain]++
		var want, got int64
		switch v := val.(type) {
		case streamEntry:
			got, want = v.bytes(), streamEntryBytes+backingBytes(reflect.ValueOf(v))
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
	for _, d := range []string{memoDomainStream, memoDomainIso, memoDomainSum} {
		if counts[d] == 0 {
			t.Errorf("memo holds no %s entry (%v); the fixture no longer covers that value type", d, counts)
		}
	}
}
