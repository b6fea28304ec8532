// Package parallel provides the bounded worker pool underlying the
// measurement engine: deterministic, index-addressed fan-out used by corpus
// generation (internal/dataset), LOOCV fold training (internal/core), and
// the per-benchmark scaling sweeps (internal/experiments).
//
// The pool preserves serial semantics exactly: results are written by
// index, so output order never depends on goroutine scheduling, and the
// error returned is the one a serial loop would have returned (the error at
// the lowest index). Callers can therefore flip between workers=1 and
// workers=N and observe bit-for-bit identical outputs.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a panic recovered inside a ForEach task, converted into an
// ordinary error so one crashing measurement cannot tear down the whole
// process (the corpus generator, an HTTP server, ...). It records which
// index panicked, the recovered value, and the goroutine stack captured at
// the recovery point, so the failure is as debuggable as the raw panic
// would have been.
type PanicError struct {
	// Index is the ForEach index whose fn panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured inside the
	// deferred recover (it includes the frames that led to the panic).
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// Unwrap exposes the panic value when it is itself an error (e.g. a
// faultinject.*Panic or a runtime error), so errors.Is/As see through the
// recovery.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// call invokes fn(i), converting a panic into a *PanicError. This is the
// single recovery point for both the serial and pooled paths, so the two
// return identical errors for the same panic. A task that re-raises a
// nested pool's *PanicError is reported at its own index with the nested
// panic's value and stack, so the frames that panicked are not replaced
// by the re-raise site.
func call(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if nested, ok := r.(*PanicError); ok {
				err = &PanicError{Index: i, Value: nested.Value, Stack: nested.Stack}
				return
			}
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// Resolve maps a configured worker count to an effective one: values <= 0
// select runtime.NumCPU() (the default), anything else is returned as-is.
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.NumCPU()
	}
	return workers
}

// failHook, when set by a test, runs on a pooled worker right after it
// records a failure, before that worker's next check for one.
var failHook func()

// ForEach runs fn(i) for every i in [0, n) on a bounded pool of workers.
//
// Semantics:
//   - workers <= 0 selects runtime.NumCPU(); workers == 1 runs the exact
//     serial loop on the calling goroutine (the legacy path: no goroutines,
//     no synchronization).
//   - Indices are claimed in ascending order, so if fn(e) fails, every
//     index < e has already been claimed; combined with returning the
//     lowest-index error, the error value matches what the serial loop
//     would have produced for deterministic fn.
//   - After the first failure no new indices are claimed (in-flight calls
//     finish), so a failing run does not pay for the whole sweep.
//   - A panic inside fn(i) is contained: it is recovered into a
//     *PanicError carrying the index, value and stack, and participates in
//     the lowest-index-error rule exactly like a returned error. The pool
//     never lets one crashing task kill the process. A task that runs a
//     nested ForEach re-raises its *PanicError (panic(pe)) to have the
//     panic reported at the outer index. Non-panicking runs are
//     bit-identical to the pre-recovery implementation (the recovery is a
//     deferred no-op on the success path).
//
// fn must be safe for concurrent invocation when workers > 1; writes to
// shared results must be disjoint per index.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Legacy serial path: identical to the pre-engine loops,
		// including stopping at the first error (a recovered panic counts
		// as that index's error).
		for i := 0; i < n; i++ {
			if err := call(fn, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	next.Store(-1)
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := call(fn, i); err != nil {
					errs[i] = err
					failed.Store(true)
					if failHook != nil {
						failHook()
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
