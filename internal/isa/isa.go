// Package isa defines the virtual instruction-category taxonomy used by the
// instrumentation, simulation, and feature-extraction layers.
//
// The taxonomy mirrors the MICA-style categories of Table IV in the paper:
// SSE (packed/vector), ALU (scalar integer arithmetic), MEM (loads/stores),
// FP (scalar floating point), Stack (push/pop and call frames), String
// (byte-string operations), Shift (multiplies and shifts), and Control
// (branches, calls, returns). Counts of instructions in these categories are
// the architecture-independent half of the predictor's feature vector.
package isa

import (
	"fmt"
	"strings"
)

// Category is one MICA-style instruction class.
type Category int

// The instruction categories, in the order used by feature vectors
// (Table IV rows 3-10).
const (
	SSE     Category = iota // packed/vector SIMD operations
	ALU                     // scalar integer arithmetic and logic
	MEM                     // loads and stores
	FP                      // scalar floating-point operations
	Stack                   // stack pushes/pops, frame setup
	String                  // string/byte-block operations
	Shift                   // shifts and multiplies
	Control                 // branches, calls, returns
	NumCategories
)

var categoryNames = [NumCategories]string{
	"sse", "alu", "mem", "fp", "stack", "string", "shift", "control",
}

// String returns the lower-case mnemonic for the category.
func (c Category) String() string {
	if c < 0 || c >= NumCategories {
		return fmt.Sprintf("isa.Category(%d)", int(c))
	}
	return categoryNames[c]
}

// ParseCategory converts a mnemonic (case-insensitive) back to a Category.
func ParseCategory(s string) (Category, error) {
	ls := strings.ToLower(strings.TrimSpace(s))
	for i, n := range categoryNames {
		if n == ls {
			return Category(i), nil
		}
	}
	return 0, fmt.Errorf("isa: unknown category %q", s)
}

// Counts holds per-category dynamic instruction counts. The zero value is an
// empty count, ready to use.
type Counts [NumCategories]uint64

// Add accumulates n instructions of category c.
func (k *Counts) Add(c Category, n uint64) {
	k[c] += n
}

// AddCounts accumulates every category of other into k.
func (k *Counts) AddCounts(other Counts) {
	for i := range k {
		k[i] += other[i]
	}
}

// Scale returns a copy of k with every category multiplied by factor.
// Scaling with a non-integral factor rounds toward zero per category.
func (k Counts) Scale(factor float64) Counts {
	var out Counts
	for i, v := range k {
		out[i] = uint64(float64(v) * factor)
	}
	return out
}

// Total returns the total dynamic instruction count across categories.
func (k Counts) Total() uint64 {
	var t uint64
	for _, v := range k {
		t += v
	}
	return t
}

// Mix returns the fraction of instructions in each category. If the count is
// empty, all fractions are zero.
func (k Counts) Mix() [NumCategories]float64 {
	var mix [NumCategories]float64
	total := k.Total()
	if total == 0 {
		return mix
	}
	for i, v := range k {
		mix[i] = float64(v) / float64(total)
	}
	return mix
}

// String renders the counts as "cat=n" pairs for debugging.
func (k Counts) String() string {
	var b strings.Builder
	for i, v := range k {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", Category(i), v)
	}
	return b.String()
}
