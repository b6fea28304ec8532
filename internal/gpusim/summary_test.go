package gpusim

import (
	"reflect"
	"testing"

	"mapc/internal/phasesum"
	"mapc/internal/simcache"
	"mapc/internal/trace"
)

// TestStreamSummaryPublishesOnlyTheSummary pins the fast tier's memo
// hygiene: sketching a slot's stream on a fresh memo publishes the
// summary and no "gpusim/stream" entry, and the summary equals Summarize
// over the stream the exact path memoizes for the same slot.
func TestStreamSummaryPublishesOnlyTheSummary(t *testing.T) {
	w := memKernel("a")
	w.Phases = append(w.Phases, computeKernel("b").Phases[0])
	w.Phases[1].Name = "second"
	for ai := 0; ai < 3; ai++ {
		memo := simcache.MustNew(64 << 20)
		sum, err := streamSummaryFor(memo, w, ai)
		if err != nil {
			t.Fatal(err)
		}
		streamKey := simcache.Key{Domain: memoDomainStream, Workload: w.Fingerprint(), Slot: ai}
		if _, ok := memo.Peek(streamKey); ok {
			t.Errorf("slot %d: computing a summary published a %s entry", ai, memoDomainStream)
		}
		if _, ok := memo.Peek(simcache.Key{Domain: memoDomainSum, Workload: w.Fingerprint(), Slot: ai}); !ok {
			t.Errorf("slot %d: summary not published", ai)
		}
		if memo.Len() != 1 {
			t.Errorf("slot %d: memo holds %d entries after one summary, want 1", ai, memo.Len())
		}

		// The exact path memoizes every client's stream: run ai+1 clients
		// so slot ai is one of them.
		exact := simcache.MustNew(64 << 20)
		ws := make([]*trace.Workload, ai+1)
		for i := range ws {
			ws[i] = w
		}
		if _, _, _, err := simulateMemory(DefaultConfig(), exact, ws); err != nil {
			t.Fatal(err)
		}
		v, ok := exact.Peek(streamKey)
		if !ok {
			t.Fatalf("slot %d: exact path published no stream", ai)
		}
		se := v.(streamEntry)
		if want := phasesum.Summarize(se.addrs, se.ends); !reflect.DeepEqual(sum, want) {
			t.Errorf("slot %d: transient-stream summary differs from Summarize over the memoized stream", ai)
		}
		if cold, err := streamSummaryFor(nil, w, ai); err != nil || !reflect.DeepEqual(cold, sum) {
			t.Errorf("slot %d: memo-off summary differs from the memoized one (err %v)", ai, err)
		}
		if hit, err := streamSummaryFor(memo, w, ai); err != nil || !reflect.DeepEqual(hit, sum) {
			t.Errorf("slot %d: memo-hit summary differs from the computed one (err %v)", ai, err)
		}
	}
}
