package dataset

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"mapc/internal/features"
)

// FuzzJournalReplay drives arbitrary bytes after a valid journal header
// through readJournal. It must not panic, and every point it returns must
// be one the generator could have measured for its key. Separately, a
// valid three-record journal cut at a fuzzed byte offset must return
// exactly the records whose JSON was complete before the cut, dropping
// only a record the cut tore.
func FuzzJournalReplay(f *testing.F) {
	const fp = "fuzz"
	header := mustJSONLine(f, journalHeader{Format: journalFormat, Config: fp})
	var body []byte
	var starts, ends []int // byte range of each record's JSON within body
	for i := 0; i < 3; i++ {
		starts = append(starts, len(body))
		body = append(body, mustJSONLine(f, journalRecord{Key: syntheticKey(i), Point: syntheticPoint(i)})...)
		ends = append(ends, len(body)-1) // before the newline
	}

	f.Add(body, uint16(len(body)))
	f.Add(body[:ends[1]], uint16(ends[0]))
	f.Add([]byte(`{"key":"sift/20+surf/20","point":{}}`+"\n"), uint16(starts[1]+5))
	f.Add([]byte("NOT JSON\n"+`{"key":"a+b","point":{"Members":[{"Benchmark":"a"},{"Benchmark":"b"}]}}`), uint16(0))
	f.Fuzz(func(t *testing.T, tail []byte, cut uint16) {
		points, _, err := readJournal(bytes.NewReader(slices.Concat(header, tail)), fp)
		if err == nil {
			for key, p := range points {
				if msg := malformed(key, p); msg != "" {
					t.Fatalf("readJournal returned a malformed point for %q: %s", key, msg)
				}
			}
		}

		c := int(cut) % (len(body) + 1)
		points, dropped, err := readJournal(bytes.NewReader(slices.Concat(header, body[:c])), fp)
		if err != nil {
			t.Fatalf("journal cut at byte %d: %v", c, err)
		}
		complete, torn := 0, 0
		for i := range ends {
			if ends[i] <= c {
				complete++
			} else if starts[i] < c {
				torn++
			}
		}
		if len(points) != complete || dropped != torn {
			t.Fatalf("cut at byte %d: %d points, %d dropped; want %d, %d", c, len(points), dropped, complete, torn)
		}
		for i := 0; i < complete; i++ {
			if got, ok := points[syntheticKey(i)]; !ok || !reflect.DeepEqual(got, syntheticPoint(i)) {
				t.Fatalf("cut at byte %d: record %d = %+v (present %v), want %+v", c, i, got, ok, syntheticPoint(i))
			}
		}
	})
}

// malformed restates the journal's record check independently of
// journalRecord.wellFormed: it returns why p cannot be the point measured
// for key, or "" when it can.
func malformed(key string, p Point) string {
	n := len(p.Members)
	switch {
	case n < 2:
		return "fewer than 2 members"
	case n > features.MaxApps:
		return "more members than a bag holds"
	case len(p.X) != n*features.PerApp+1:
		return "feature vector width does not match the bag size"
	case len(p.CPUTimes) != n || len(p.GPUTimes) != n:
		return "not one CPU and GPU time per member"
	}
	want := strings.Split(key, "+")
	got := make([]string, n)
	for i, m := range p.Members {
		got[i] = m.String()
	}
	sort.Strings(want)
	sort.Strings(got)
	if !slices.Equal(got, want) {
		return "members are not the key's"
	}
	return ""
}

// mustJSONLine marshals v as one journal line.
func mustJSONLine(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return append(b, '\n')
}
