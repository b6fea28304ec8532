package phasesum

import (
	"fmt"
	"reflect"
	"testing"
)

// stubRes is a stub steady result: its completion time, the active set
// that produced it, and the phased completion time Finish stamps on it.
type stubRes struct {
	T    float64
	Set  string
	Done float64
}

// stubSim drives Run with table-driven evaluators keyed by the active set
// (fmt.Sprint of the index slice), recording every call.
type stubSim struct {
	t               *testing.T
	exact, analytic map[string][]float64
	conf            float64
	exactCalls      []string
	analyticCalls   []string
}

func (s *stubSim) eval(table map[string][]float64, calls *[]string, active []int) []stubRes {
	key := fmt.Sprint(active)
	*calls = append(*calls, key)
	times, ok := table[key]
	if !ok {
		s.t.Fatalf("no stub steady state for active set %s", key)
	}
	out := make([]stubRes, len(times))
	for i, tm := range times {
		out[i] = stubRes{T: tm, Set: key}
	}
	return out
}

func (s *stubSim) coRun(n int) CoRun[stubRes] {
	return CoRun[stubRes]{
		N: n,
		Exact: func(active []int) ([]stubRes, error) {
			return s.eval(s.exact, &s.exactCalls, active), nil
		},
		Analytic: func(active []int) ([]stubRes, float64, error) {
			if len(active) < 2 {
				s.t.Fatalf("analytic evaluator called with lone client %v", active)
			}
			return s.eval(s.analytic, &s.analyticCalls, active), s.conf, nil
		},
		Time: func(r stubRes) float64 { return r.T },
		Finish: func(r stubRes, t float64) stubRes {
			r.Done = t
			return r
		},
	}
}

// threeClient is the hand-computed schedule. Full set [2 4 8]: client 0
// finishes at 2, leaving 1/2 of client 1 and 3/4 of client 2. Survivors
// [1 2] re-evaluate to [2 8]: client 1 finishes after 1/2*2 = 1 more
// (t=3), leaving 3/4 - 1/8 = 5/8 of client 2. The lone survivor runs at
// 4, so client 2 finishes after 5/8*4 = 2.5 more (t=5.5).
var threeClient = map[string][]float64{
	"[0 1 2]": {2, 4, 8},
	"[1 2]":   {2, 8},
	"[2]":     {4},
}

func wantThree(set string) []stubRes {
	return []stubRes{{2, set, 2}, {4, set, 3}, {8, set, 5.5}}
}

func TestRunExactSchedule(t *testing.T) {
	s := &stubSim{t: t, exact: threeClient}
	c := s.coRun(3)
	c.Analytic = func([]int) ([]stubRes, float64, error) {
		t.Fatal("exact tier called the analytic evaluator")
		return nil, 0, nil
	}
	for _, fid := range []Fidelity{"", Exact} {
		s.exactCalls = nil
		got, kind, err := Run(fid, c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, wantThree("[0 1 2]")) {
			t.Errorf("fid %q: schedule %+v, want %+v", fid, got, wantThree("[0 1 2]"))
		}
		if kind != (RunKind{UsedExact: true, Conf: 1}) {
			t.Errorf("fid %q: kind %+v, want exact", fid, kind)
		}
		if want := []string{"[0 1 2]", "[1 2]", "[2]"}; !reflect.DeepEqual(s.exactCalls, want) {
			t.Errorf("fid %q: exact evaluations %v, want %v", fid, s.exactCalls, want)
		}
	}
}

func TestRunFastEvaluatesFullSetOnce(t *testing.T) {
	s := &stubSim{t: t,
		exact:    map[string][]float64{"[2]": {4}},
		analytic: map[string][]float64{"[0 1 2]": {2, 4, 8}, "[1 2]": {2, 8}},
		conf:     0.9,
	}
	got, kind, err := Run(Fast, s.coRun(3))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, wantThree("[0 1 2]")) {
		t.Errorf("schedule %+v, want %+v", got, wantThree("[0 1 2]"))
	}
	if kind != (RunKind{Conf: 0.9}) {
		t.Errorf("kind %+v, want analytic", kind)
	}
	if want := []string{"[0 1 2]", "[1 2]"}; !reflect.DeepEqual(s.analyticCalls, want) {
		t.Errorf("analytic evaluations %v, want the full set once, then the survivors %v", s.analyticCalls, want)
	}
	if want := []string{"[2]"}; !reflect.DeepEqual(s.exactCalls, want) {
		t.Errorf("exact evaluations %v, want only the lone survivor %v", s.exactCalls, want)
	}
}

// TestRunReportsConfidence: the fast tier stays analytic at every
// confidence — below, at and above DefaultMinConfidence, and at zero (the
// bandwidth regime guard) — and reports the full set's confidence as the
// run's scope signal without ever calling the exact evaluator on it.
func TestRunReportsConfidence(t *testing.T) {
	for _, conf := range []float64{0, 0.7499, DefaultMinConfidence, 0.7501, 1} {
		s := &stubSim{t: t, exact: map[string][]float64{"[2]": {4}}, analytic: threeClient, conf: conf}
		got, kind, err := Run(Fast, s.coRun(3))
		if err != nil {
			t.Fatal(err)
		}
		if want := (RunKind{Conf: conf}); kind != want {
			t.Errorf("conf %v: kind %+v, want %+v", conf, kind, want)
		}
		if !reflect.DeepEqual(got, wantThree("[0 1 2]")) {
			t.Errorf("conf %v: schedule %+v", conf, got)
		}
		if want := []string{"[2]"}; !reflect.DeepEqual(s.exactCalls, want) {
			t.Errorf("conf %v: exact evaluations %v, want only the lone survivor %v", conf, s.exactCalls, want)
		}
	}
}

func TestRunZeroTimeClient(t *testing.T) {
	s := &stubSim{t: t, exact: map[string][]float64{"[0 1]": {0, 4}, "[1]": {2}}}
	got, _, err := Run(Exact, s.coRun(2))
	if err != nil {
		t.Fatal(err)
	}
	// Client 0 finishes at once and client 1 has all its work left for
	// its lone step.
	want := []stubRes{{0, "[0 1]", 0}, {4, "[0 1]", 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("schedule %+v, want %+v", got, want)
	}
}

func TestRunSingleClient(t *testing.T) {
	for _, fid := range []Fidelity{Exact, Fast} {
		s := &stubSim{t: t, exact: map[string][]float64{"[0]": {3}}}
		got, kind, err := Run(fid, s.coRun(1))
		if err != nil {
			t.Fatal(err)
		}
		// The steady state is the run: no schedule, no Finish.
		if want := []stubRes{{3, "[0]", 0}}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %+v, want %+v", fid, got, want)
		}
		if kind != (RunKind{UsedExact: true, Conf: 1}) || len(s.analyticCalls) != 0 {
			t.Errorf("%s: kind %+v with %d analytic calls, want exact only", fid, kind, len(s.analyticCalls))
		}
	}
}
