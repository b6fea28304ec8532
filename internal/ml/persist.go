package ml

import (
	"encoding/json"
	"errors"
	"fmt"
)

// treeJSON is the serialized form of a fitted TreeRegressor. The flattened
// node array serializes directly; hyper-parameters ride along so a loaded
// model reports how it was built.
type treeJSON struct {
	Format              string     `json:"format"`
	MaxDepth            int        `json:"max_depth"`
	MinSamplesSplit     int        `json:"min_samples_split"`
	MinSamplesLeaf      int        `json:"min_samples_leaf"`
	MinImpurityDecrease float64    `json:"min_impurity_decrease"`
	NFeatures           int        `json:"n_features"`
	Nodes               []nodeJSON `json:"nodes"`
}

type nodeJSON struct {
	Feature   int     `json:"feature"`
	Threshold float64 `json:"threshold,omitempty"`
	Left      int     `json:"left,omitempty"`
	Right     int     `json:"right,omitempty"`
	Value     float64 `json:"value"`
	Samples   int     `json:"samples"`
	Impurity  float64 `json:"impurity"`
}

// treeFormat tags the serialization so future layout changes fail loudly.
const treeFormat = "mapc-tree-v1"

// MarshalJSON implements json.Marshaler for fitted trees.
func (t *TreeRegressor) MarshalJSON() ([]byte, error) {
	if !t.fitted {
		return nil, errors.New("ml: cannot serialize an unfitted tree")
	}
	out := treeJSON{
		Format:              treeFormat,
		MaxDepth:            t.MaxDepth,
		MinSamplesSplit:     t.MinSamplesSplit,
		MinSamplesLeaf:      t.MinSamplesLeaf,
		MinImpurityDecrease: t.MinImpurityDecrease,
		NFeatures:           t.nFeature,
		Nodes:               make([]nodeJSON, len(t.nodes)),
	}
	for i, n := range t.nodes {
		out.Nodes[i] = nodeJSON{
			Feature: n.feature, Threshold: n.threshold,
			Left: n.left, Right: n.right,
			Value: n.value, Samples: n.samples, Impurity: n.impurity,
		}
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler, validating the node graph.
func (t *TreeRegressor) UnmarshalJSON(data []byte) error {
	var in treeJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("ml: decoding tree: %w", err)
	}
	if in.Format != treeFormat {
		return fmt.Errorf("ml: unsupported tree format %q", in.Format)
	}
	if in.NFeatures <= 0 {
		return errors.New("ml: serialized tree has no features")
	}
	if len(in.Nodes) == 0 {
		return errors.New("ml: serialized tree has no nodes")
	}
	nodes := make([]treeNode, len(in.Nodes))
	// Every node but the root must be exactly one node's child: a shared
	// child would make the recursive walks (Depth, Export) exponential,
	// and an orphan is not part of the tree.
	isChild := make([]bool, len(in.Nodes))
	for i, n := range in.Nodes {
		if n.Feature >= in.NFeatures {
			return fmt.Errorf("ml: node %d splits on feature %d of %d", i, n.Feature, in.NFeatures)
		}
		if n.Feature >= 0 {
			// Internal node: children must be in-range forward
			// references (the builder appends children after parents).
			if n.Left <= 0 || n.Left >= len(in.Nodes) ||
				n.Right <= 0 || n.Right >= len(in.Nodes) {
				return fmt.Errorf("ml: node %d has invalid children (%d, %d)", i, n.Left, n.Right)
			}
			if n.Left <= i || n.Right <= i {
				return fmt.Errorf("ml: node %d has non-forward children", i)
			}
			if n.Left == n.Right || isChild[n.Left] || isChild[n.Right] {
				return fmt.Errorf("ml: node %d shares a child with another node", i)
			}
			isChild[n.Left], isChild[n.Right] = true, true
		}
		nodes[i] = treeNode{
			feature: n.Feature, threshold: n.Threshold,
			left: n.Left, right: n.Right,
			value: n.Value, samples: n.Samples, impurity: n.Impurity,
		}
	}
	for i := 1; i < len(isChild); i++ {
		if !isChild[i] {
			return fmt.Errorf("ml: node %d is unreachable from the root", i)
		}
	}
	t.MaxDepth = in.MaxDepth
	t.MinSamplesSplit = in.MinSamplesSplit
	t.MinSamplesLeaf = in.MinSamplesLeaf
	t.MinImpurityDecrease = in.MinImpurityDecrease
	t.nFeature = in.NFeatures
	t.nodes = nodes
	t.fitted = true
	return nil
}
