package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzReadSnapshot drives arbitrary bytes through Server.ReadSnapshot on
// one server shared by every input. It must not panic; when it succeeds,
// every entry of the document has a non-empty key and a feature vector of
// the model's width, and it seeds at most one cache entry per document
// entry.
func FuzzReadSnapshot(f *testing.F) {
	s := newTestServer(f, nil)
	width := s.cfg.Model.NumFeatures()
	valid := s.Snapshot()
	valid.Entries = []SnapshotEntry{
		{Key: "sift/20+surf/20", X: make([]float64, width), Fairness: 0.5},
		{Key: "surf/40+surf/40", X: make([]float64, width), Fairness: 1},
	}
	doc, err := json.Marshal(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(doc)
	f.Add(doc[:len(doc)/2])
	f.Add(bytes.Replace(doc, []byte(`"sift/20+surf/20"`), []byte(`""`), 1))
	f.Add(bytes.Replace(doc, []byte(`"fairness":0.5`), []byte(`"x":[1,2],"fairness":0.5`), 1))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		seeded, err := s.ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var snap Snapshot
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
			t.Fatalf("ReadSnapshot accepted %q, which does not decode: %v", data, err)
		}
		for i, e := range snap.Entries {
			if e.Key == "" || len(e.X) != width {
				t.Fatalf("ReadSnapshot accepted entry %d with key %q and %d features (model width %d)", i, e.Key, len(e.X), width)
			}
		}
		if seeded > len(snap.Entries) {
			t.Fatalf("seeded %d entries from a %d-entry snapshot", seeded, len(snap.Entries))
		}
	})
}
