package phasesum_test

import (
	"reflect"
	"testing"

	"mapc/internal/gpusim"
	"mapc/internal/phasesum"
	"mapc/internal/simcache"
	"mapc/internal/trace"
	"mapc/internal/vision"
)

// streamField copies one phase-contiguous stream out of a simulator's memo
// entry. The entry types are private to their packages, so the fields are
// read through reflection; a renamed field fails the test rather than
// silently skipping the stream.
func streamField(t *testing.T, val any, addrsName string) ([]uint64, []int) {
	t.Helper()
	v := reflect.ValueOf(val)
	fa, fe := v.FieldByName(addrsName), v.FieldByName("ends")
	if !fa.IsValid() || !fe.IsValid() {
		t.Fatalf("%T has no %q/%q fields", val, addrsName, "ends")
	}
	addrs := make([]uint64, fa.Len())
	for i := range addrs {
		addrs[i] = fa.Index(i).Uint()
	}
	ends := make([]int, fe.Len())
	for i := range ends {
		ends[i] = int(fe.Index(i).Int())
	}
	return addrs, ends
}

// TestSummarizeMatchesReferenceOnSimulatorStreams runs every benchmark's
// exact two-client GPU co-run, then requires the production sketch to
// equal the frozen reference on every per-slot reference stream gpusim
// memoized. (cpusim sketches no stream: it has no shared cache stage.)
func TestSummarizeMatchesReferenceOnSimulatorStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("instruments all nine benchmarks; run without -short")
	}
	want := map[string]string{"gpusim/stream": "addrs"}
	for _, b := range vision.All() {
		res, err := vision.Run(b, 20, 42)
		if err != nil {
			t.Fatal(err)
		}
		w := res.Workload
		memo := simcache.MustNew(256 << 20)
		if _, err := gpusim.RunMemo(gpusim.DefaultConfig(), memo, []*trace.Workload{w, w}); err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		memo.Items(func(key simcache.Key, val any, _ int64) bool {
			field, ok := want[key.Domain]
			if !ok {
				return true
			}
			addrs, ends := streamField(t, val, field)
			got, ref := phasesum.Summarize(addrs, ends), phasesum.ReferenceSummarize(addrs, ends)
			if !reflect.DeepEqual(got, ref) {
				t.Errorf("%s %s slot %d: Summarize diverges from the reference sketch", b.Name(), key.Domain, key.Slot)
			}
			seen[key.Domain]++
			return true
		})
		for domain := range want {
			if seen[domain] != 2 {
				t.Fatalf("%s: checked %d %s streams, want one per slot (2)", b.Name(), seen[domain], domain)
			}
		}
	}
}
