package trace

import (
	"encoding/json"
	"io"

	"mapc/internal/isa"
)

// JSON serialization writes a workload as a human-readable archive, with
// named instruction categories and access patterns (mapc-workload -json).
// The archive is an output only: no program code reads it back.

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

// WriteJSON streams the workload to w as indented JSON.
func (w *Workload) WriteJSON(out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(w)
}
