package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// entryBody encodes e exactly as handleCacheEntry answers it.
func entryBody(t testing.TB, e CacheEntryResponse) []byte {
	t.Helper()
	rr := httptest.NewRecorder()
	WriteJSON(rr, 200, e)
	return rr.Body.Bytes()
}

// TestDecodePeerEntry pins what peer fill accepts: exactly one entry for
// the requested key, at the model's width, with a fairness in (0, 1].
func TestDecodePeerEntry(t *testing.T) {
	const key = "sift/20+surf/40"
	x := []float64{1, 2.5, -3}
	valid := entryBody(t, CacheEntryResponse{Key: key, X: x, Fairness: 0.75})
	for _, tc := range []struct {
		name string
		body []byte
		ok   bool
	}{
		{"valid", valid, true},
		{"fairness one", entryBody(t, CacheEntryResponse{Key: key, X: x, Fairness: 1}), true},
		{"trailing whitespace", append(append([]byte(nil), valid...), " \n\t"...), true},
		{"other key", entryBody(t, CacheEntryResponse{Key: "sift/20+surf/20", X: x, Fairness: 0.75}), false},
		{"narrow", entryBody(t, CacheEntryResponse{Key: key, X: x[:2], Fairness: 0.75}), false},
		{"fairness zero", entryBody(t, CacheEntryResponse{Key: key, X: x, Fairness: 0}), false},
		{"fairness negative", entryBody(t, CacheEntryResponse{Key: key, X: x, Fairness: -0.5}), false},
		{"fairness above one", entryBody(t, CacheEntryResponse{Key: key, X: x, Fairness: 1.5}), false},
		{"second value", append(append([]byte(nil), valid...), valid...), false},
		{"trailing garbage", append(append([]byte(nil), valid...), "]"...), false},
		{"truncated", valid[:len(valid)/2], false},
		{"empty", nil, false},
	} {
		e, err := decodePeerEntry(bytes.NewReader(tc.body), key, len(x))
		if tc.ok != (err == nil) {
			t.Errorf("%s: accepted=%v (err %v), want %v", tc.name, err == nil, err, tc.ok)
			continue
		}
		if tc.ok && (e.Key != key || len(e.X) != len(x)) {
			t.Errorf("%s: decoded %+v", tc.name, e)
		}
	}

	// The widest real answer fits: k=8's 85 features at the longest
	// float64 encoding, under a key that JSON escapes at 6 bytes a byte.
	wide := CacheEntryResponse{Key: strings.Repeat("<", 200), X: make([]float64, 85), Fairness: 1}
	for i := range wide.X {
		wide.X[i] = -2.2250738585072014e-308
	}
	if _, err := decodePeerEntry(bytes.NewReader(entryBody(t, wide)), wide.Key, len(wide.X)); err != nil {
		t.Errorf("worst-case legitimate entry refused: %v", err)
	}
}

// countingReader counts the bytes read from r.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestDecodePeerEntryBoundsTheBody is the regression test for the
// unbounded peer-fill decoder: a peer streaming a huge feature array, a
// huge key string, or a valid entry followed by a megabyte of whitespace
// is refused after at most peerEntryLimit bytes instead of being buffered
// whole.
func TestDecodePeerEntryBoundsTheBody(t *testing.T) {
	const key, width = "sift/20+surf/40", 21
	limit := peerEntryLimit(key, width)
	valid := entryBody(t, CacheEntryResponse{Key: key, X: make([]float64, width), Fairness: 0.5})
	pad := func(prefix []byte, unit string) io.Reader {
		return io.MultiReader(bytes.NewReader(prefix), strings.NewReader(strings.Repeat(unit, 1<<20/len(unit))))
	}
	for name, body := range map[string]io.Reader{
		"huge array":        pad([]byte(`{"key":"`+key+`","x":[`), "0.125,"),
		"trailing megabyte": pad(valid, " "),
		"huge key":          pad([]byte(`{"key":"`), "a"),
	} {
		cr := &countingReader{r: body}
		if _, err := decodePeerEntry(cr, key, width); err == nil {
			t.Errorf("%s: oversized body accepted", name)
		}
		if cr.n > limit {
			t.Errorf("%s: read %d bytes past the %d-byte limit", name, cr.n, limit)
		}
	}
}

// FuzzPeerEntry drives arbitrary peer answers through decodePeerEntry. It
// must not panic or read past its limit, and an accepted entry carries the
// requested key, exactly width features and a fairness in (0, 1].
func FuzzPeerEntry(f *testing.F) {
	const key = "sift/20+surf/40"
	valid, err := json.Marshal(CacheEntryResponse{Key: key, X: []float64{1, 2, 3}, Fairness: 0.5})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, key, uint8(3))
	f.Add(valid, key, uint8(2))
	f.Add(valid, "surf/40+sift/20", uint8(3))
	f.Add(bytes.Replace(valid, []byte(`0.5`), []byte(`1.5`), 1), key, uint8(3))
	f.Add(append(valid, valid...), key, uint8(3))
	f.Add([]byte(`{"key":"","x":[],"fairness":1}`), "", uint8(0))
	f.Add([]byte(`null`), key, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, key string, w uint8) {
		width := int(w % 32)
		cr := &countingReader{r: bytes.NewReader(data)}
		e, err := decodePeerEntry(cr, key, width)
		if limit := peerEntryLimit(key, width); cr.n > limit {
			t.Fatalf("read %d bytes past the %d-byte limit", cr.n, limit)
		}
		if err != nil {
			return
		}
		if e.Key != key || len(e.X) != width || !(e.Fairness > 0 && e.Fairness <= 1) {
			t.Fatalf("accepted key %q with %d features and fairness %v; want key %q, %d features, fairness in (0, 1]",
				e.Key, len(e.X), e.Fairness, key, width)
		}
	})
}
