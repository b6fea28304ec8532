// Package benchio is the shared schema and storage for serving-tier
// benchmark results (BENCH_serve.json): cmd/mapc-loadgen appends entries,
// scripts/benchjson gates CI on them, and the committed file documents the
// serving tier's measured latency/throughput/shed profile on the one
// machine it names. Append refuses a run from any other machine.
//
// The file is a single JSON document — machine metadata plus an append-only
// entry list — replaced atomically on every append via internal/fsatomic,
// so a crashed or interrupted loadgen run never leaves a truncated file.
package benchio

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"mapc/internal/fsatomic"
)

// ServeEntry is one recorded load-generation run against a replica or the
// router. Latencies cover successful (200) responses only, measured after
// the warmup window; shed rate is the fraction of sent requests answered
// 503 (admission control) over the same window.
type ServeEntry struct {
	Label       string  `json:"label"`
	Date        string  `json:"date"`     // RFC 3339, UTC
	Target      string  `json:"target"`   // "replica" or "router"
	Replicas    int     `json:"replicas"` // serving processes behind the target
	K           int     `json:"k"`        // bag size replayed
	QPS         float64 `json:"offered_qps"`
	Concurrency int     `json:"concurrency"`
	DurationSec float64 `json:"duration_sec"` // measured window, warmup excluded

	Requests     int64            `json:"requests"` // sent during the measured window
	StatusCounts map[string]int64 `json:"status_counts"`

	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`

	ThroughputRPS     float64 `json:"throughput_rps"`          // 200s per second
	ThroughputPerCore float64 `json:"throughput_rps_per_core"` // ThroughputRPS / cores
	ShedRate          float64 `json:"shed_rate"`               // 503s / Requests

	// Degraded counts 200 responses a replica admitted past its brownout
	// watermark (the X-Mapc-Degraded response header); their answers are
	// the exact ones. DegradedRate is Degraded / Requests. Absent for
	// pre-brownout entries.
	Degraded     int64   `json:"degraded,omitempty"`
	DegradedRate float64 `json:"degraded_rate,omitempty"`
	// ErrorRate is the fraction of sent requests that failed hard:
	// transport errors (status 0) plus every 5xx except 503 — shedding is
	// deliberate backpressure and is gated separately via ShedRate.
	// Availability is its complement. Both are recomputable from
	// StatusCounts (see ComputedErrorRate), which is what benchjson gates
	// on, so entries recorded before these fields existed still gate
	// correctly.
	ErrorRate    float64 `json:"error_rate"`
	Availability float64 `json:"availability"`
}

// errorStatus reports whether a recorded status-count key counts as a hard
// failure: transport errors land under "0", and every 5xx except 503 (the
// admission-control shed signal) is a server-side failure.
func errorStatus(key string) bool {
	if key == "0" {
		return true
	}
	return len(key) == 3 && key[0] == '5' && key != "503"
}

// ComputedErrorRate derives the hard-failure rate from StatusCounts —
// the ground truth benchjson gates on, independent of whether the entry
// was recorded before the ErrorRate field existed. Client-side drops
// ("dropped") are not requests and are excluded from both numerator and
// denominator.
func (e *ServeEntry) ComputedErrorRate() float64 {
	var sent, failed int64
	for key, n := range e.StatusCounts {
		if key == "dropped" {
			continue
		}
		sent += n
		if errorStatus(key) {
			failed += n
		}
	}
	if sent == 0 {
		return 0
	}
	return float64(failed) / float64(sent)
}

// ComputedAvailability is 1 - ComputedErrorRate: the fraction of sent
// requests that got a deliberate answer (200s — degraded included — plus
// client-error rejections and 503 backpressure).
func (e *ServeEntry) ComputedAvailability() float64 {
	return 1 - e.ComputedErrorRate()
}

// ServeBench is the schema of BENCH_serve.json.
type ServeBench struct {
	Machine string       `json:"machine"`
	Cores   int          `json:"cores"`
	Entries []ServeEntry `json:"entries"`
}

// Load reads a ServeBench file. A missing file is not an error: it returns
// an empty document, ready to append to.
func Load(path string) (*ServeBench, error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &ServeBench{}, nil
	}
	if err != nil {
		return nil, err
	}
	var sb ServeBench
	if err := json.Unmarshal(b, &sb); err != nil {
		return nil, fmt.Errorf("benchio: parsing %s: %w", path, err)
	}
	return &sb, nil
}

// Append adds entry to the file at path, creating it with the given
// machine/cores metadata when absent, and replaces the file atomically.
// The file describes one machine: a run from a machine other than the one
// it records is refused, since its latencies and per-core throughput would
// not compare with the entries already there.
func Append(path, machine string, cores int, entry ServeEntry) error {
	sb, err := Load(path)
	if err != nil {
		return err
	}
	if sb.Machine == "" {
		sb.Machine, sb.Cores = machine, cores
	} else if sb.Machine != machine {
		return fmt.Errorf("benchio: %s records machine %q; refusing to append a run from %q", path, sb.Machine, machine)
	}
	sb.Entries = append(sb.Entries, entry)
	return fsatomic.WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(sb)
	})
}

// Quantile returns the q-quantile (0 <= q <= 1) of sorted ascending
// samples using linear interpolation between closest ranks — the same
// estimate for p50 whether n is odd or even, and a defined p999 even for
// small n. Returns NaN for an empty slice.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Quantiles sorts samples in place and returns the p50, p99 and p999
// estimates in one pass. Returns NaNs for an empty slice.
func Quantiles(samples []float64) (p50, p99, p999 float64) {
	sort.Float64s(samples)
	return Quantile(samples, 0.50), Quantile(samples, 0.99), Quantile(samples, 0.999)
}
