package trace

import (
	"math"
	"strings"
	"testing"

	"mapc/internal/isa"
)

func validOpts() PhaseOpts {
	return PhaseOpts{Pattern: Sequential, Reuse: 0.5, Parallelism: 10, VectorWidth: 1}
}

func TestRecorderBasicLifecycle(t *testing.T) {
	r := NewRecorder("bench", 20)
	r.BeginPhase("p1", 1024, validOpts())
	r.ALU(10)
	r.Mem(5)
	r.EndPhase()
	r.BeginPhase("p2", 2048, validOpts())
	r.FP(3)
	r.EndPhase()

	w, err := r.Workload()
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(w.Phases))
	}
	if w.Phases[0].Counts[isa.ALU] != 10 || w.Phases[0].Counts[isa.MEM] != 5 {
		t.Errorf("phase 0 counts %v", w.Phases[0].Counts)
	}
	if w.Instructions() != 18 {
		t.Errorf("Instructions() = %d, want 18", w.Instructions())
	}
	if w.Benchmark != "bench" || w.BatchSize != 20 {
		t.Errorf("workload identity %q/%d", w.Benchmark, w.BatchSize)
	}
}

func TestRecorderConvenienceCounters(t *testing.T) {
	r := NewRecorder("b", 1)
	r.BeginPhase("p", 64, validOpts())
	r.SSE(1)
	r.ALU(2)
	r.Mem(3)
	r.FP(4)
	r.Stack(5)
	r.Str(6)
	r.Shift(7)
	r.Control(8)
	r.EndPhase()
	w, err := r.Workload()
	if err != nil {
		t.Fatal(err)
	}
	c := w.TotalCounts()
	want := isa.Counts{1, 2, 3, 4, 5, 6, 7, 8}
	if c != want {
		t.Fatalf("counts = %v, want %v", c, want)
	}
}

func TestRecorderNestedPhaseFails(t *testing.T) {
	r := NewRecorder("b", 1)
	r.BeginPhase("a", 64, validOpts())
	r.BeginPhase("b", 64, validOpts())
	r.EndPhase()
	if _, err := r.Workload(); err == nil {
		t.Fatal("nested BeginPhase not reported")
	}
}

func TestRecorderCountOutsidePhaseFails(t *testing.T) {
	r := NewRecorder("b", 1)
	r.ALU(1)
	if _, err := r.Workload(); err == nil {
		t.Fatal("count outside phase not reported")
	}
}

func TestRecorderUnbalancedEndFails(t *testing.T) {
	r := NewRecorder("b", 1)
	r.EndPhase()
	if _, err := r.Workload(); err == nil {
		t.Fatal("unbalanced EndPhase not reported")
	}
}

func TestRecorderOpenPhaseAtFinalizeFails(t *testing.T) {
	r := NewRecorder("b", 1)
	r.BeginPhase("open", 64, validOpts())
	if _, err := r.Workload(); err == nil {
		t.Fatal("open phase at Workload() not reported")
	}
}

func TestRecorderEmptyWorkloadFails(t *testing.T) {
	r := NewRecorder("b", 1)
	if _, err := r.Workload(); err == nil {
		t.Fatal("empty workload not reported")
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.BeginPhase("p", 64, validOpts())
	r.ALU(1)
	r.Mem(1)
	r.EndPhase() // must not panic
}

func TestPhaseValidate(t *testing.T) {
	base := Phase{Name: "p", Footprint: 64, Pattern: Sequential,
		Reuse: 0.5, Parallelism: 1, VectorWidth: 1}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid phase rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Phase)
	}{
		{"empty name", func(p *Phase) { p.Name = "" }},
		{"negative footprint", func(p *Phase) { p.Footprint = -1 }},
		{"reuse > 1", func(p *Phase) { p.Reuse = 1.5 }},
		{"reuse < 0", func(p *Phase) { p.Reuse = -0.1 }},
		{"zero parallelism", func(p *Phase) { p.Parallelism = 0 }},
		{"zero vector width", func(p *Phase) { p.VectorWidth = 0 }},
		{"invalid pattern", func(p *Phase) { p.Pattern = Pattern(99) }},
		{"strided without stride", func(p *Phase) { p.Pattern = Strided; p.StrideBytes = 0 }},
	}
	for _, tc := range cases {
		p := base
		tc.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate() accepted invalid phase", tc.name)
		}
	}
}

func TestWorkloadValidate(t *testing.T) {
	good := &Workload{Benchmark: "b", BatchSize: 1, Phases: []Phase{{
		Name: "p", Footprint: 64, Pattern: Sequential, Reuse: 0,
		Parallelism: 1, VectorWidth: 1,
	}}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	bad := []*Workload{
		{Benchmark: "", BatchSize: 1, Phases: good.Phases},
		{Benchmark: "b", BatchSize: 0, Phases: good.Phases},
		{Benchmark: "b", BatchSize: 1},
		{Benchmark: "b", BatchSize: 1, TransferBytes: -1, Phases: good.Phases},
	}
	for _, reuse := range []float64{-0.1, 1.1, math.NaN(), math.Inf(1)} {
		p := good.Phases[0]
		p.Reuse = reuse
		bad = append(bad, &Workload{Benchmark: "b", BatchSize: 1, Phases: []Phase{p}})
	}
	for i, w := range bad {
		if err := w.Validate(); err == nil {
			t.Errorf("bad workload %d accepted", i)
		}
	}
}

func TestWorkloadCloneIsDeep(t *testing.T) {
	w := &Workload{Benchmark: "b", BatchSize: 2, TransferBytes: 99,
		Phases: []Phase{{Name: "p", Footprint: 64, Parallelism: 1, VectorWidth: 1}}}
	c := w.Clone()
	if c.TransferBytes != 99 {
		t.Error("Clone dropped TransferBytes")
	}
	c.Phases[0].Name = "mutated"
	if w.Phases[0].Name != "p" {
		t.Error("Clone shares phase storage with the original")
	}
}

func TestMaxFootprint(t *testing.T) {
	w := &Workload{Benchmark: "b", BatchSize: 1, Phases: []Phase{
		{Name: "a", Footprint: 10, Parallelism: 1, VectorWidth: 1},
		{Name: "b", Footprint: 99, Parallelism: 1, VectorWidth: 1},
		{Name: "c", Footprint: 5, Parallelism: 1, VectorWidth: 1},
	}}
	if got := w.MaxFootprint(); got != 99 {
		t.Errorf("MaxFootprint = %d", got)
	}
}

func TestLaunchCount(t *testing.T) {
	p := Phase{}
	if p.LaunchCount() != 1 {
		t.Errorf("zero Launches -> LaunchCount %d", p.LaunchCount())
	}
	p.Launches = 7
	if p.LaunchCount() != 7 {
		t.Errorf("LaunchCount = %d", p.LaunchCount())
	}
}

func TestPatternString(t *testing.T) {
	for p, want := range map[Pattern]string{
		Sequential: "sequential", Strided: "strided",
		Windowed: "windowed", Random: "random",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", int(p), p.String())
		}
	}
	if s := Pattern(42).String(); !strings.Contains(s, "42") {
		t.Errorf("invalid pattern String() = %q", s)
	}
}

func TestWorkloadString(t *testing.T) {
	w := &Workload{Benchmark: "sift", BatchSize: 20, Phases: []Phase{
		{Name: "p", Parallelism: 1, VectorWidth: 1},
	}}
	s := w.String()
	if !strings.Contains(s, "sift") || !strings.Contains(s, "batch=20") {
		t.Errorf("String() = %q", s)
	}
}
