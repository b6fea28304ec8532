package benchio

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAppendAndLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")

	// Missing file loads as an empty document.
	sb, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if sb.Machine != "" || len(sb.Entries) != 0 {
		t.Fatalf("missing file loaded as %+v, want empty", sb)
	}

	e1 := ServeEntry{
		Label: "solo", Date: "2026-08-08T00:00:00Z", Target: "replica",
		Replicas: 1, K: 2, QPS: 200, Concurrency: 32, DurationSec: 10,
		Requests:     2000,
		StatusCounts: map[string]int64{"200": 1990, "503": 10},
		P50Ms:        1.2, P99Ms: 4.5, P999Ms: 9.1,
		ThroughputRPS: 199, ThroughputPerCore: 24.9, ShedRate: 0.005,
	}
	if err := Append(path, "test-machine", 8, e1); err != nil {
		t.Fatal(err)
	}
	// Second append from the same machine must keep the first entry and
	// the metadata.
	e2 := e1
	e2.Label = "tier3"
	e2.Target = "router"
	e2.Replicas = 3
	if err := Append(path, "test-machine", 8, e2); err != nil {
		t.Fatal(err)
	}

	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Machine != "test-machine" || got.Cores != 8 {
		t.Errorf("metadata = %q/%d, want test-machine/8", got.Machine, got.Cores)
	}
	if len(got.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(got.Entries))
	}
	if got.Entries[0].Label != "solo" || got.Entries[1].Label != "tier3" {
		t.Errorf("entry order = %q,%q, want solo,tier3", got.Entries[0].Label, got.Entries[1].Label)
	}
	if got.Entries[0].StatusCounts["503"] != 10 {
		t.Errorf("status counts lost in round trip: %+v", got.Entries[0].StatusCounts)
	}

	// The file must be valid indented JSON ending in a newline (it gets
	// committed and diffed).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), "{\n  \"machine\"") || !strings.HasSuffix(string(raw), "\n") {
		t.Errorf("file is not indented JSON with trailing newline:\n%s", raw)
	}
}

// TestAppendRefusesAnotherMachine: a run from another machine is refused,
// naming both, and leaves the file as it was.
func TestAppendRefusesAnotherMachine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	e := ServeEntry{Label: "ref", StatusCounts: map[string]int64{"200": 1}}
	const ref, other = "linux/amd64 vm (1 cores)", "linux/amd64 ci-runner (4 cores)"
	if err := Append(path, ref, 1, e); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	err = Append(path, other, 4, e)
	if err == nil {
		t.Fatal("Append from another machine accepted")
	}
	if !strings.Contains(err.Error(), ref) || !strings.Contains(err.Error(), other) {
		t.Errorf("error %q does not name both machines", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Errorf("refused append changed the file:\n%s", after)
	}
}

func TestComputedErrorRateAndAvailability(t *testing.T) {
	cases := []struct {
		name     string
		counts   map[string]int64
		wantRate float64
	}{
		{"all-ok", map[string]int64{"200": 100}, 0},
		// 503 is deliberate backpressure, not a hard failure: it gates
		// via ShedRate, never via the availability bar.
		{"shed-only", map[string]int64{"200": 90, "503": 10}, 0},
		{"client-errors", map[string]int64{"200": 90, "400": 10}, 0},
		{"transport", map[string]int64{"200": 90, "0": 10}, 0.1},
		{"server-5xx", map[string]int64{"200": 95, "500": 3, "502": 2}, 0.05},
		// Client-side drops never left the loadgen; they are excluded
		// from both numerator and denominator.
		{"drops-excluded", map[string]int64{"200": 99, "0": 1, "dropped": 900}, 0.01},
		{"empty", nil, 0},
	}
	for _, c := range cases {
		e := ServeEntry{StatusCounts: c.counts}
		if got := e.ComputedErrorRate(); math.Abs(got-c.wantRate) > 1e-12 {
			t.Errorf("%s: error rate = %v, want %v", c.name, got, c.wantRate)
		}
		if got := e.ComputedAvailability(); math.Abs(got-(1-c.wantRate)) > 1e-12 {
			t.Errorf("%s: availability = %v, want %v", c.name, got, 1-c.wantRate)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("garbage file loaded without error")
	}
}

func TestQuantile(t *testing.T) {
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty slice quantile is not NaN")
	}
	if got := Quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {1, 10}, {0.5, 5.5}, {0.25, 3.25}, {0.99, 9.91},
	}
	for _, c := range cases {
		if got := Quantile(sorted, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}

	// Quantiles sorts in place and agrees with Quantile on sorted input.
	samples := []float64{9, 1, 5, 3, 7, 2, 8, 4, 10, 6}
	p50, p99, p999 := Quantiles(samples)
	if p50 != 5.5 {
		t.Errorf("Quantiles p50 = %v, want 5.5", p50)
	}
	if math.Abs(p99-9.91) > 1e-9 || p999 <= p99-1e-9 {
		t.Errorf("Quantiles p99/p999 = %v/%v", p99, p999)
	}
	if !sort_IsSorted(samples) {
		t.Error("Quantiles did not sort its input")
	}
}

func sort_IsSorted(s []float64) bool {
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			return false
		}
	}
	return true
}
