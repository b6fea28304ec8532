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

func TestWorkloadJSONRoundTrip(t *testing.T) {
	w := sampleWorkload()
	var buf bytes.Buffer
	if err := w.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := new(Workload)
	if err := json.NewDecoder(&buf).Decode(got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", w, got)
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

func TestWorkloadJSONRejectsInvalid(t *testing.T) {
	cases := []string{
		`not json`,
		`{"format":"wrong","benchmark":"b","batch_size":1,"phases":[]}`,
		`{"format":"mapc-workload-v1","benchmark":"","batch_size":1,"phases":[]}`,
		`{"format":"mapc-workload-v1","benchmark":"b","batch_size":1,"phases":[
		  {"name":"p","counts":{},"pattern":"bogus","parallelism":1,"vector_width":1}]}`,
		`{"format":"mapc-workload-v1","benchmark":"b","batch_size":1,"phases":[
		  {"name":"p","counts":{"nope":1},"pattern":"sequential","parallelism":1,"vector_width":1}]}`,
		`{"format":"mapc-workload-v1","benchmark":"b","batch_size":1,"phases":[
		  {"name":"p","counts":{},"pattern":"sequential","parallelism":0,"vector_width":1}]}`,
	}
	for i, c := range cases {
		if err := json.NewDecoder(strings.NewReader(c)).Decode(new(Workload)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestWorkloadMarshalInvalid(t *testing.T) {
	w := &Workload{} // invalid: no benchmark/phases
	if _, err := json.Marshal(w); err == nil {
		t.Fatal("invalid workload serialized")
	}
}
