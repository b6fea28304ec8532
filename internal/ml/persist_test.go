package ml

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestTreeJSONRoundTrip(t *testing.T) {
	d := xorDataset()
	tree := NewTreeRegressor()
	tree.MaxDepth = 5
	if err := tree.Fit(d); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	var loaded TreeRegressor
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatal(err)
	}
	if loaded.MaxDepth != 5 {
		t.Errorf("MaxDepth %d after round trip", loaded.MaxDepth)
	}
	if loaded.NodeCount() != tree.NodeCount() {
		t.Errorf("node count %d vs %d", loaded.NodeCount(), tree.NodeCount())
	}
	for i, x := range d.X {
		a, err := tree.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("point %d: %v vs %v after round trip", i, a, b)
		}
	}
	// Decision paths must also survive.
	pa, _ := tree.DecisionPath(d.X[0])
	pb, _ := loaded.DecisionPath(d.X[0])
	if len(pa) != len(pb) {
		t.Errorf("path lengths %d vs %d", len(pa), len(pb))
	}
}

func TestTreeMarshalUnfitted(t *testing.T) {
	if _, err := json.Marshal(NewTreeRegressor()); err == nil {
		t.Fatal("unfitted tree serialized")
	}
}

func TestTreeUnmarshalRejectsGarbage(t *testing.T) {
	cases := []string{
		`{}`,
		`{"format":"wrong","n_features":1,"nodes":[{"feature":-1,"value":1}]}`,
		`{"format":"mapc-tree-v1","n_features":0,"nodes":[{"feature":-1,"value":1}]}`,
		`{"format":"mapc-tree-v1","n_features":1,"nodes":[]}`,
		// split feature out of range
		`{"format":"mapc-tree-v1","n_features":1,"nodes":[{"feature":3,"left":1,"right":2,"value":1}]}`,
		// child index out of range
		`{"format":"mapc-tree-v1","n_features":1,"nodes":[{"feature":0,"left":5,"right":6,"value":1}]}`,
		// backward child reference (would loop)
		`{"format":"mapc-tree-v1","n_features":1,"nodes":[
			{"feature":0,"left":1,"right":2,"value":1},
			{"feature":-1,"value":1},
			{"feature":0,"left":1,"right":1,"value":1}]}`,
		// both branches to one child
		`{"format":"mapc-tree-v1","n_features":1,"nodes":[
			{"feature":0,"left":1,"right":1,"value":1},
			{"feature":-1,"value":1}]}`,
		// a child shared by two parents (a DAG, not a tree)
		`{"format":"mapc-tree-v1","n_features":1,"nodes":[
			{"feature":0,"left":1,"right":2,"value":1},
			{"feature":0,"left":2,"right":3,"value":1},
			{"feature":-1,"value":1},
			{"feature":-1,"value":1}]}`,
		// an orphan node no parent reaches
		`{"format":"mapc-tree-v1","n_features":1,"nodes":[
			{"feature":-1,"value":1},
			{"feature":-1,"value":2}]}`,
	}
	for i, c := range cases {
		var tr TreeRegressor
		if err := json.Unmarshal([]byte(c), &tr); err == nil {
			t.Errorf("case %d accepted: %s", i, strings.TrimSpace(c))
		}
	}
}
