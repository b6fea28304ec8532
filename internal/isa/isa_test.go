package isa

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCategoryString(t *testing.T) {
	cases := map[Category]string{
		SSE: "sse", ALU: "alu", MEM: "mem", FP: "fp",
		Stack: "stack", String: "string", Shift: "shift", Control: "control",
	}
	for cat, want := range cases {
		if got := cat.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(cat), got, want)
		}
	}
	if got := Category(99).String(); !strings.Contains(got, "99") {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestCountsAddTotal(t *testing.T) {
	var k Counts
	k.Add(ALU, 10)
	k.Add(MEM, 5)
	k.Add(ALU, 2)
	if k[ALU] != 12 || k[MEM] != 5 {
		t.Fatalf("counts = %v", k)
	}
	if k.Total() != 17 {
		t.Fatalf("Total() = %d, want 17", k.Total())
	}
}

func TestAddCounts(t *testing.T) {
	var a, b Counts
	a.Add(FP, 3)
	b.Add(FP, 4)
	b.Add(Shift, 1)
	a.AddCounts(b)
	if a[FP] != 7 || a[Shift] != 1 {
		t.Fatalf("AddCounts result %v", a)
	}
}

func TestScale(t *testing.T) {
	var k Counts
	k.Add(ALU, 100)
	k.Add(MEM, 7)
	s := k.Scale(2.5)
	if s[ALU] != 250 {
		t.Errorf("scaled ALU = %d, want 250", s[ALU])
	}
	if s[MEM] != 17 { // 17.5 truncates toward zero
		t.Errorf("scaled MEM = %d, want 17", s[MEM])
	}
	if k[ALU] != 100 {
		t.Error("Scale mutated the receiver")
	}
}

func TestMixEmpty(t *testing.T) {
	var k Counts
	mix := k.Mix()
	for i, v := range mix {
		if v != 0 {
			t.Errorf("empty mix[%d] = %v", i, v)
		}
	}
}

func TestMixSumsToOne(t *testing.T) {
	if err := quick.Check(func(vals [NumCategories]uint16) bool {
		var k Counts
		total := uint64(0)
		for i, v := range vals {
			k.Add(Category(i), uint64(v))
			total += uint64(v)
		}
		if total == 0 {
			return true
		}
		var sum float64
		for _, f := range k.Mix() {
			if f < 0 || f > 1 {
				return false
			}
			sum += f
		}
		return math.Abs(sum-1) < 1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountsString(t *testing.T) {
	var k Counts
	k.Add(SSE, 1)
	s := k.String()
	if !strings.Contains(s, "sse=1") || !strings.Contains(s, "control=0") {
		t.Errorf("String() = %q", s)
	}
}
