package parallel

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// panicAt returns an fn that panics at index p with a recognizable value
// and optionally errors at index e.
func panicAt(p int, e int, eErr error) func(int) error {
	return func(i int) error {
		if i == p {
			panic(fmt.Sprintf("boom-%d", i))
		}
		if eErr != nil && i == e {
			return eErr
		}
		return nil
	}
}

// TestForEachPanicBecomesPanicError: a panic in one task must surface as a
// *PanicError with the right index, not kill the process, for both the
// serial and pooled paths — and both paths must report the same index.
func TestForEachPanicBecomesPanicError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			err := ForEach(workers, 64, panicAt(5, -1, nil))
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("got %T (%v), want *PanicError", err, err)
			}
			if pe.Index != 5 {
				t.Errorf("PanicError.Index = %d, want 5", pe.Index)
			}
			if got := fmt.Sprint(pe.Value); got != "boom-5" {
				t.Errorf("PanicError.Value = %q, want boom-5", got)
			}
			if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "panic_test.go") {
				t.Errorf("stack not preserved:\n%s", pe.Stack)
			}
			// The message embeds value and stack for log-level debuggability.
			if msg := pe.Error(); !strings.Contains(msg, "task 5") || !strings.Contains(msg, "boom-5") {
				t.Errorf("Error() = %q", msg)
			}
		})
	}
}

// TestForEachPanicLowestIndexWins: the lowest-index failure wins whether it
// is a panic or an error, preserving serial-equivalent semantics.
func TestForEachPanicLowestIndexWins(t *testing.T) {
	errHigh := errors.New("later error")
	for _, workers := range []int{1, 2, 8} {
		// Panic at 7 beats error at 40.
		err := ForEach(workers, 64, panicAt(7, 40, errHigh))
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Index != 7 {
			t.Errorf("workers=%d: got %v, want PanicError at 7", workers, err)
		}
		// Error at 3 beats panic at 9.
		errLow := errors.New("early error")
		err = ForEach(workers, 64, func(i int) error {
			switch i {
			case 3:
				return errLow
			case 9:
				panic("late panic")
			}
			return nil
		})
		if !errors.Is(err, errLow) {
			t.Errorf("workers=%d: got %v, want the index-3 error", workers, err)
		}
	}
}

// TestForEachPanicStopsClaiming: a panic sets the failed flag like an
// error, so the pool stops claiming new indices. Every call but the
// panicking one blocks until the failure is recorded, so no schedule can
// let a sibling race ahead: once it is recorded, each worker finishes at
// most the one index it holds (claimed before it could observe the
// failure) and claims nothing more, so the run makes at most one call per
// worker.
func TestForEachPanicStopsClaiming(t *testing.T) {
	const workers = 4
	recorded := make(chan struct{})
	failHook = func() { close(recorded) }
	t.Cleanup(func() { failHook = nil })
	var calls atomic.Int64
	err := ForEach(workers, 10_000, func(i int) error {
		calls.Add(1)
		if i == 0 {
			panic("die early")
		}
		<-recorded
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 0 {
		t.Fatalf("got %v, want PanicError at 0", err)
	}
	if c := calls.Load(); c > workers {
		t.Errorf("%d calls on %d workers: indices claimed after the panic was recorded", c, workers)
	}
}

// TestForEachSerialPanicStopsImmediately mirrors the serial first-error
// contract for panics.
func TestForEachSerialPanicStopsImmediately(t *testing.T) {
	var calls int
	err := ForEach(1, 100, func(i int) error {
		calls++
		if i == 3 {
			panic("stop")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Index != 3 || calls != 4 {
		t.Fatalf("serial panic path: calls=%d err=%v, want 4 calls and PanicError at 3", calls, err)
	}
}

// TestPanicErrorUnwrap: error panic values unwrap so errors.Is sees through
// the recovery; non-error values unwrap to nil.
func TestPanicErrorUnwrap(t *testing.T) {
	sentinel := errors.New("sentinel")
	err := ForEach(2, 8, func(i int) error {
		if i == 2 {
			panic(sentinel)
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Errorf("errors.Is through PanicError failed: %v", err)
	}
	pe := &PanicError{Index: 0, Value: "not an error"}
	if pe.Unwrap() != nil {
		t.Error("string panic value unwrapped to non-nil")
	}
}

// TestForEachPanicDoesNotPerturbSuccess: a fully successful run with the
// recovery in place still writes every slot (bit-identity of the success
// path).
func TestForEachPanicDoesNotPerturbSuccess(t *testing.T) {
	const n = 97
	for _, workers := range []int{1, 4} {
		out := make([]int, n)
		if err := ForEach(workers, n, func(i int) error {
			out[i] = i + 1
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i+1 {
				t.Fatalf("workers=%d slot %d holds %d", workers, i, v)
			}
		}
	}
}
