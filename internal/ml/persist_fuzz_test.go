package ml

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzTreeJSON drives arbitrary bytes through TreeRegressor.UnmarshalJSON.
// It must never panic, and any tree it accepts must be a well-formed tree
// (every node reached from the root exactly once, every split on a
// feature the tree declares) that predicts, reports its depth and
// survives a marshal/unmarshal round trip unchanged.
func FuzzTreeJSON(f *testing.F) {
	fitted := NewTreeRegressor()
	fitted.MaxDepth = 4
	if err := fitted.Fit(xorDataset()); err != nil {
		f.Fatal(err)
	}
	good, err := json.Marshal(fitted)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, seed := range []string{
		`{"format":"mapc-tree-v1","n_features":1,"nodes":[{"feature":-1,"value":1}]}`,
		`{"format":"mapc-tree-v1","n_features":2,"nodes":[{"feature":1,"threshold":0.5,"left":1,"right":2,"value":1,"samples":4},{"feature":-1,"value":0,"samples":2},{"feature":-7,"left":9,"value":2,"samples":2}]}`,
		`{"format":"mapc-tree-v1","n_features":1,"nodes":[{"feature":0,"left":1,"right":1,"value":1},{"feature":-1,"value":1}]}`,
		`{"format":"mapc-tree-v1","n_features":9223372036854775807,"nodes":[{"feature":-1,"threshold":-0,"value":1}]}`,
		`{"format":"mapc-tree-v1","n_features":1,"nodes":[{"feature":0,"left":-1,"right":1,"value":1}]}`,
		`{}`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var tr TreeRegressor
		if err := tr.UnmarshalJSON(data); err != nil {
			return
		}
		// Walk from the root: each node must be visited exactly once.
		visits := make([]int, tr.NodeCount())
		for stack := []int{0}; len(stack) > 0; {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if visits[n]++; visits[n] > 1 {
				t.Fatalf("node %d reached twice:\n%s", n, data)
			}
			if nd := tr.nodes[n]; nd.feature >= 0 {
				if nd.feature >= tr.NumFeatures() {
					t.Fatalf("node %d splits on feature %d of %d:\n%s", n, nd.feature, tr.NumFeatures(), data)
				}
				stack = append(stack, nd.left, nd.right)
			}
		}
		for n, v := range visits {
			if v != 1 {
				t.Fatalf("node %d reached %d times:\n%s", n, v, data)
			}
		}
		if d := tr.Depth(); d < 0 || d >= tr.NodeCount() {
			t.Fatalf("depth %d of a %d-node tree:\n%s", d, tr.NodeCount(), data)
		}
		// Predicting needs a vector as wide as the declared feature count.
		if tr.NumFeatures() <= 1<<12 {
			if _, err := tr.DecisionPath(make([]float64, tr.NumFeatures())); err != nil {
				t.Fatalf("accepted tree cannot predict: %v\n%s", err, data)
			}
		}
		out, err := json.Marshal(&tr)
		if err != nil {
			t.Fatalf("accepted tree does not marshal: %v\n%s", err, data)
		}
		var back TreeRegressor
		if err := back.UnmarshalJSON(out); err != nil {
			t.Fatalf("re-marshalled tree rejected: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(tr, back) {
			t.Fatalf("round trip changed the tree:\n in %+v\nout %+v", tr, back)
		}
	})
}
