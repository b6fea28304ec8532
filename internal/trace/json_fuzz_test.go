package trace

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzWorkloadJSON drives arbitrary bytes through Workload.UnmarshalJSON.
// It must never panic, and any workload it accepts must validate and
// survive a marshal/unmarshal round trip unchanged, fingerprint included.
func FuzzWorkloadJSON(f *testing.F) {
	good, err := json.Marshal(sampleWorkload())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, seed := range []string{
		`{"format":"mapc-workload-v1","benchmark":"b","batch_size":1,"phases":[{"name":"p","counts":{"alu":1},"footprint":0,"pattern":"sequential","reuse":0,"parallelism":1,"vector_width":1}]}`,
		`{"format":"mapc-workload-v1","benchmark":"b","batch_size":1,"transfer_bytes":-9223372036854775808,"phases":[{"name":"p","counts":{},"footprint":0,"pattern":"random","reuse":1,"parallelism":1,"vector_width":1}]}`,
		`{"format":"mapc-workload-v1","benchmark":"b","batch_size":3,"phases":[{"name":"s","counts":{"mem":18446744073709551615},"footprint":64,"pattern":"strided","stride_bytes":8,"reuse":-0,"parallelism":2,"vector_width":4,"batch_invariant":true,"launches":-3}]}`,
		`{"format":"mapc-workload-v1","benchmark":"b","batch_size":1,"phases":[{"name":"p","counts":{"bogus":1},"pattern":"sequential","parallelism":1,"vector_width":1}]}`,
		`{"format":"mapc-workload-v0"}`,
		`null`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var w Workload
		if err := w.UnmarshalJSON(data); err != nil {
			return
		}
		if err := w.Validate(); err != nil {
			t.Fatalf("accepted workload fails validation: %v\n%s", err, data)
		}
		out, err := json.Marshal(&w)
		if err != nil {
			t.Fatalf("accepted workload does not marshal: %v\n%s", err, data)
		}
		var back Workload
		if err := back.UnmarshalJSON(out); err != nil {
			t.Fatalf("re-marshalled workload rejected: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(w, back) || w.Fingerprint() != back.Fingerprint() {
			t.Fatalf("round trip changed the workload:\n in %+v\nout %+v", w, back)
		}
	})
}
