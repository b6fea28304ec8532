package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mapc/internal/isa"
)

func sampleWorkload() *Workload {
	var c1, c2 isa.Counts
	c1.Add(isa.ALU, 100)
	c1.Add(isa.MEM, 50)
	c2.Add(isa.SSE, 30)
	c2.Add(isa.Control, 7)
	return &Workload{
		Benchmark:     "demo",
		BatchSize:     40,
		TransferBytes: 12345,
		Phases: []Phase{
			{
				Name: "scan", Counts: c1, Footprint: 4096,
				Pattern: Sequential, Reuse: 0.25,
				Parallelism: 64, VectorWidth: 4, Launches: 13,
			},
			{
				Name: "gather", Counts: c2, Footprint: 1 << 20,
				Pattern: Strided, StrideBytes: 128, Reuse: 0.5,
				Parallelism: 8, VectorWidth: 1, BatchInvariant: true,
			},
		},
	}
}

// TestWorkloadJSONRoundTrip decodes WriteJSON's archive into its wire form
// and checks every field against the source workload, so the archive stays
// complete: each phase parameter and every non-zero category count, by name.
func TestWorkloadJSONRoundTrip(t *testing.T) {
	w := sampleWorkload()
	var buf bytes.Buffer
	if err := w.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	var got workloadJSON
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	want := workloadJSON{
		Format:        workloadFormat,
		Benchmark:     w.Benchmark,
		BatchSize:     w.BatchSize,
		TransferBytes: w.TransferBytes,
	}
	for _, p := range w.Phases {
		counts := map[string]uint64{}
		for c := isa.Category(0); c < isa.NumCategories; c++ {
			if p.Counts[c] != 0 {
				counts[c.String()] = p.Counts[c]
			}
		}
		want.Phases = append(want.Phases, phaseJSON{
			Name: p.Name, Counts: counts, Footprint: p.Footprint,
			Pattern: p.Pattern.String(), StrideBytes: p.StrideBytes,
			Reuse: p.Reuse, Parallelism: p.Parallelism,
			VectorWidth: p.VectorWidth, BatchInvariant: p.BatchInvariant,
			Launches: p.Launches,
		})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("archive mismatch:\nwant %+v\ngot  %+v", want, got)
	}
	// A field added to Workload or Phase needs a slot in the wire form
	// (workloadJSON adds only Format).
	if n, m := reflect.TypeOf(Workload{}).NumField(), reflect.TypeOf(workloadJSON{}).NumField(); m != n+1 {
		t.Errorf("Workload has %d fields, workloadJSON %d (want one more, for Format)", n, m)
	}
	if n, m := reflect.TypeOf(Phase{}).NumField(), reflect.TypeOf(phaseJSON{}).NumField(); m != n {
		t.Errorf("Phase has %d fields, phaseJSON %d", n, m)
	}
}

func TestWorkloadJSONHumanReadable(t *testing.T) {
	data, err := json.Marshal(sampleWorkload())
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"alu":100`, `"pattern":"strided"`, `"benchmark":"demo"`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %s:\n%s", want, s)
		}
	}
}

func TestWorkloadMarshalInvalid(t *testing.T) {
	w := &Workload{} // invalid: no benchmark/phases
	if _, err := json.Marshal(w); err == nil {
		t.Fatal("invalid workload serialized")
	}
}
