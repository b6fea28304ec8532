package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mapc/internal/benchio"
)

// benchOutput is saved `go test -bench -benchmem` text: GOMAXPROCS
// suffixes, sub-benchmarks, a name with no suffix (GOMAXPROCS=1) and the
// surrounding header and summary lines.
const benchOutput = `goos: linux
goarch: amd64
pkg: mapc/internal/memsim
cpu: Intel(R) Xeon(R) Processor
BenchmarkCacheAccessHitHeavy-2         	50556217	        25.80 ns/op	       0 B/op	       0 allocs/op
BenchmarkStreamNext/sequential-2       	88562702	        12.05 ns/op	       0 B/op	       0 allocs/op
BenchmarkStreamFill/random-16          	    3873	    279756 ns/op	     208 B/op	       1 allocs/op
BenchmarkSummarize                     	     380	   3064054 ns/op
BenchmarkFidelityCorpus/fast-2         	       1	   7758275 ns/op	     11729 points/sec
BenchmarkBroken-2                      	--- FAIL: BenchmarkBroken-2
PASS
ok  	mapc/internal/memsim	19.344s
`

func TestParseBench(t *testing.T) {
	got := parseBench(benchOutput)
	want := map[string]float64{
		"CacheAccessHitHeavy":   25.80,
		"StreamNext/sequential": 12.05,
		"StreamFill/random":     279756,
		"Summarize":             3064054,
		"FidelityCorpus/fast":   7758275,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseBench = %v, want %v", got, want)
	}
}

func TestGateVerdicts(t *testing.T) {
	baseNs := map[string][]float64{
		"Slower":  {100},
		"Faster":  {100},
		"AtLimit": {100},
		"Gone":    {100},
	}
	headNs := map[string][]float64{
		"Slower":  {201},
		"Faster":  {199},
		"AtLimit": {200},
		"Added":   {5000},
	}
	rows, failed := gate(baseNs, headNs)
	status := map[string]string{}
	for _, r := range rows {
		status[r.name] = r.status
	}
	want := map[string]string{
		"Slower":  "FAIL",    // 2.01x
		"Faster":  "ok",      // 1.99x
		"AtLimit": "ok",      // exactly 2x is not beyond the limit
		"Gone":    "missing", // a base name missing at head fails
		"Added":   "new",     // a head-only name is reported, not gated
	}
	if !reflect.DeepEqual(status, want) {
		t.Fatalf("statuses = %v, want %v", status, want)
	}
	if failed != 2 {
		t.Fatalf("failed = %d, want 2 (Slower, Gone)", failed)
	}
	var names []string
	for _, r := range rows {
		names = append(names, r.name)
	}
	if !reflect.DeepEqual(names, []string{"Added", "AtLimit", "Faster", "Gone", "Slower"}) {
		t.Fatalf("rows not sorted by name: %v", names)
	}
}

// TestMeasureAlternatesAndTakesMedian checks the round schedule (head first
// in even rounds, base first in odd ones) and that the gate reads each
// tree's median across rounds: one slow round at head does not fail it.
func TestMeasureAlternatesAndTakesMedian(t *testing.T) {
	perRound := [2][]float64{
		base: {100, 102, 98},
		head: {110, 900, 105}, // round 2 hit a noisy neighbour
	}
	var order []int
	calls := [2]int{}
	samples, err := measure(func(tree int) (map[string]float64, error) {
		order = append(order, tree)
		v := perRound[tree][calls[tree]]
		calls[tree]++
		return map[string]float64{"Bench": v}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{head, base, base, head, head, base}; !reflect.DeepEqual(order, want) {
		t.Fatalf("run order = %v, want %v", order, want)
	}
	if len(samples[head]["Bench"]) != abRounds || len(samples[base]["Bench"]) != abRounds {
		t.Fatalf("samples = %v, want %d per tree", samples, abRounds)
	}
	rows, failed := gate(samples[base], samples[head])
	// Head's mean (371.7) would fail at 2x; its median passes.
	if failed != 0 || rows[0].base != 100 || rows[0].head != 110 {
		t.Fatalf("gate = %+v (failed %d), want medians base 100, head 110 and a pass", rows, failed)
	}
}

// TestServeCheckRecomputesFromStatusCounts gates on the status counts, not
// on the entry's stored error_rate and availability fields.
func TestServeCheckRecomputesFromStatusCounts(t *testing.T) {
	write := func(t *testing.T, e benchio.ServeEntry) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "BENCH_serve.json")
		b, err := json.Marshal(benchio.ServeBench{Machine: "test", Cores: 1, Entries: []benchio.ServeEntry{e}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	entry := benchio.ServeEntry{Label: "e", Target: "router", Replicas: 2, Requests: 100, P99Ms: 5}

	// Stored fields claim a clean run; the counts show 5% hard failures.
	lying := entry
	lying.StatusCounts = map[string]int64{"200": 95, "0": 3, "500": 2}
	lying.ErrorRate, lying.Availability = 0, 1
	if err := runServeCheck(write(t, lying), 0.1, 100, 0.01, 0); err == nil {
		t.Error("error-rate gate passed on stored error_rate 0 with 5% failures in status_counts")
	}
	if err := runServeCheck(write(t, lying), 0.1, 100, 1, 0.99); err == nil {
		t.Error("availability gate passed on stored availability 1 with 95% in status_counts")
	}

	// Stored fields claim failures; the counts show none (503 is shed,
	// and client drops are not requests).
	clean := entry
	clean.StatusCounts = map[string]int64{"200": 90, "503": 5, "dropped": 5}
	clean.ErrorRate, clean.Availability = 0.5, 0.5
	if err := runServeCheck(write(t, clean), 0.1, 100, 0, 1); err != nil {
		t.Errorf("gate failed on stored error_rate 0.5 with no failures in status_counts: %v", err)
	}
}
