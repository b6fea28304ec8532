package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"mapc/internal/isa"
)

// JSON serialization lets workloads be archived and replayed without
// re-running the instrumented benchmarks — useful for regression corpora
// and for feeding externally captured traces into the simulators.

type workloadJSON struct {
	Format        string      `json:"format"`
	Benchmark     string      `json:"benchmark"`
	BatchSize     int         `json:"batch_size"`
	TransferBytes int64       `json:"transfer_bytes,omitempty"`
	Phases        []phaseJSON `json:"phases"`
}

type phaseJSON struct {
	Name           string            `json:"name"`
	Counts         map[string]uint64 `json:"counts"`
	Footprint      int64             `json:"footprint"`
	Pattern        string            `json:"pattern"`
	StrideBytes    int64             `json:"stride_bytes,omitempty"`
	Reuse          float64           `json:"reuse"`
	Parallelism    int               `json:"parallelism"`
	VectorWidth    int               `json:"vector_width"`
	BatchInvariant bool              `json:"batch_invariant,omitempty"`
	Launches       int               `json:"launches,omitempty"`
}

const workloadFormat = "mapc-workload-v1"

// MarshalJSON implements json.Marshaler with named categories and patterns
// for human-readable archives.
func (w *Workload) MarshalJSON() ([]byte, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	out := workloadJSON{
		Format:        workloadFormat,
		Benchmark:     w.Benchmark,
		BatchSize:     w.BatchSize,
		TransferBytes: w.TransferBytes,
		Phases:        make([]phaseJSON, len(w.Phases)),
	}
	for i := range w.Phases {
		p := &w.Phases[i]
		counts := map[string]uint64{}
		for c := isa.Category(0); c < isa.NumCategories; c++ {
			if p.Counts[c] > 0 {
				counts[c.String()] = p.Counts[c]
			}
		}
		out.Phases[i] = phaseJSON{
			Name: p.Name, Counts: counts, Footprint: p.Footprint,
			Pattern: p.Pattern.String(), StrideBytes: p.StrideBytes,
			Reuse: p.Reuse, Parallelism: p.Parallelism,
			VectorWidth: p.VectorWidth, BatchInvariant: p.BatchInvariant,
			Launches: p.Launches,
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler, validating the result.
func (w *Workload) UnmarshalJSON(data []byte) error {
	var in workloadJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("trace: decoding workload: %w", err)
	}
	if in.Format != workloadFormat {
		return fmt.Errorf("trace: unsupported workload format %q", in.Format)
	}
	out := Workload{
		Benchmark:     in.Benchmark,
		BatchSize:     in.BatchSize,
		TransferBytes: in.TransferBytes,
		Phases:        make([]Phase, len(in.Phases)),
	}
	for i, pj := range in.Phases {
		pat, err := parsePattern(pj.Pattern)
		if err != nil {
			return fmt.Errorf("trace: phase %d: %w", i, err)
		}
		p := Phase{
			Name: pj.Name, Footprint: pj.Footprint, Pattern: pat,
			StrideBytes: pj.StrideBytes, Reuse: pj.Reuse,
			Parallelism: pj.Parallelism, VectorWidth: pj.VectorWidth,
			BatchInvariant: pj.BatchInvariant, Launches: pj.Launches,
		}
		for name, n := range pj.Counts {
			c, err := isa.ParseCategory(name)
			if err != nil {
				return fmt.Errorf("trace: phase %d: %w", i, err)
			}
			p.Counts[c] = n
		}
		out.Phases[i] = p
	}
	if err := out.Validate(); err != nil {
		return err
	}
	*w = out
	return nil
}

func parsePattern(s string) (Pattern, error) {
	for p := Pattern(0); p < numPatterns; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown pattern %q", s)
}

// WriteJSON streams the workload to w as indented JSON.
func (w *Workload) WriteJSON(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(w)
}
