package perfmon

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSlowdown(t *testing.T) {
	s, err := AppPerf{IPCAlone: 2, IPCShared: 1}.Slowdown()
	if err != nil {
		t.Fatal(err)
	}
	if s != 0.5 {
		t.Fatalf("slowdown %v", s)
	}
	if _, err := (AppPerf{IPCAlone: 0, IPCShared: 1}).Slowdown(); err == nil {
		t.Error("zero isolated IPC accepted")
	}
	if _, err := (AppPerf{IPCAlone: 1, IPCShared: 0}).Slowdown(); err == nil {
		t.Error("zero shared IPC accepted")
	}
}

func TestFairnessEquation(t *testing.T) {
	// Two tasks slowing to 0.5 and 0.8: fairness = 0.5/0.8.
	f, err := Fairness([]AppPerf{
		{IPCAlone: 2, IPCShared: 1}, // slowdown 0.5
		{IPCAlone: 5, IPCShared: 4}, // slowdown 0.8
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-0.625) > 1e-12 {
		t.Fatalf("fairness %v, want 0.625", f)
	}
}

func TestFairnessEqualSlowdownsIsOne(t *testing.T) {
	f, err := Fairness([]AppPerf{
		{IPCAlone: 4, IPCShared: 2},
		{IPCAlone: 10, IPCShared: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f != 1 {
		t.Fatalf("fairness %v, want 1", f)
	}
}

func TestFairnessSingleTask(t *testing.T) {
	f, err := Fairness([]AppPerf{{IPCAlone: 3, IPCShared: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if f != 1 {
		t.Fatalf("single-task fairness %v", f)
	}
}

func TestFairnessErrors(t *testing.T) {
	if _, err := Fairness(nil); err == nil {
		t.Error("empty bag accepted")
	}
	if _, err := Fairness([]AppPerf{{IPCAlone: 0, IPCShared: 1}}); err == nil {
		t.Error("invalid member accepted")
	}
}

func TestFairnessBounds(t *testing.T) {
	// Property: for any valid bag, fairness lies in (0, 1].
	if err := quick.Check(func(raw [][2]uint16) bool {
		if len(raw) == 0 {
			return true
		}
		bag := make([]AppPerf, 0, len(raw))
		for _, r := range raw {
			alone := float64(r[0]%1000) + 1
			shared := float64(r[1]%1000) + 1
			bag = append(bag, AppPerf{IPCAlone: alone, IPCShared: shared})
		}
		f, err := Fairness(bag)
		if err != nil {
			return false
		}
		return f > 0 && f <= 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}
