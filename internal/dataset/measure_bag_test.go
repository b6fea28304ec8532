package dataset

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mapc/internal/faultinject"
	"mapc/internal/parallel"
)

// getRecovering calls t.get and converts a panic from compute into an
// error, so a test can go on after it.
func getRecovering(tab *onceTable[string, *int], k string, compute func() (*int, error)) (v *int, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panicked: %v", r)
		}
	}()
	return tab.get(k, compute)
}

// TestOnceTablePanicIsNotPoisoned: a compute that panics publishes
// nothing. The panic reaches the caller, the entry is dropped, and the
// next get of the key recomputes instead of returning (nil, nil).
func TestOnceTablePanicIsNotPoisoned(t *testing.T) {
	var tab onceTable[string, *int]
	_, err := getRecovering(&tab, "k", func() (*int, error) { panic("compute dies") })
	if err == nil || !strings.Contains(err.Error(), "compute dies") {
		t.Fatalf("panicking compute returned %v, want its panic re-raised", err)
	}
	if n := len(tab.m); n != 0 {
		t.Fatalf("%d entries left after a panicking compute, want 0", n)
	}
	want := 7
	v, err := tab.get("k", func() (*int, error) { return &want, nil })
	if err != nil || v == nil || *v != want {
		t.Fatalf("get after a panic returned v=%v err=%v, want %d", v, err, want)
	}
	if got := tab.runs.Load(); got != 2 {
		t.Errorf("compute ran %d times, want 2", got)
	}
	// The healthy entry is published: a third get does not compute.
	if v, err := tab.get("k", func() (*int, error) { panic("recomputed") }); err != nil || *v != want {
		t.Fatalf("third get returned v=%v err=%v", v, err)
	}
}

// TestOnceTablePanicWakesWaiters: callers that share a key with a
// panicking compute never see its zero value. Whether a caller waited on
// the panicking compute or came after its entry was dropped, it gets a
// computed value.
func TestOnceTablePanicWakesWaiters(t *testing.T) {
	var tab onceTable[string, *int]
	started, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, err := getRecovering(&tab, "k", func() (*int, error) {
			close(started)
			<-release
			panic("leader dies")
		})
		leaderDone <- err
	}()
	<-started

	const waiters = 8
	want := 3
	got := make([]*int, waiters)
	errs := make([]error, waiters)
	var entered, wg sync.WaitGroup
	for i := range waiters {
		entered.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			entered.Done()
			got[i], errs[i] = tab.get("k", func() (*int, error) { return &want, nil })
		}()
	}
	entered.Wait()
	close(release)
	if err := <-leaderDone; err == nil {
		t.Error("leader's panic was swallowed")
	}
	wg.Wait()
	for i := range waiters {
		if errs[i] != nil || got[i] == nil || *got[i] != want {
			t.Errorf("waiter %d got v=%v err=%v, want %d", i, got[i], errs[i], want)
		}
	}
	if runs := tab.runs.Load(); runs != 2 {
		t.Errorf("compute ran %d times, want 2 (the panic, then one recompute)", runs)
	}
}

// TestMeasureBagWorkersBitIdentical: a k=4 bag with one member repeated
// measures to the same features and point whether its members are
// measured serially or concurrently, and each distinct member is
// measured once.
func TestMeasureBagWorkersBitIdentical(t *testing.T) {
	bag := []Member{
		{Benchmark: "fast", Batch: 20},
		{Benchmark: "hog", Batch: 40},
		{Benchmark: "fast", Batch: 20},
		{Benchmark: "knn", Batch: 20},
	}
	type result struct {
		x        []float64
		fairness float64
		p        Point
	}
	var results []result
	for _, workers := range []int{1, 4} {
		cfg := smallConfig()
		cfg.K = 4
		cfg.Workers = workers
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		x, fairness, err := g.BagFeatures(bag)
		if err != nil {
			t.Fatal(err)
		}
		p, err := g.MeasureBag(bag)
		if err != nil {
			t.Fatal(err)
		}
		if got := g.measured.runs.Load(); got != 3 {
			t.Errorf("workers=%d: %d member measurements for 3 distinct members", workers, got)
		}
		results = append(results, result{x, fairness, p})
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("workers=1 and workers=4 differ:\n%+v\n%+v", results[0], results[1])
	}
}

// TestMeasureBagFirstInvalidMemberWins: with two invalid members, the
// error names the first in bag order at every worker count, as the
// serial loop did, even when the later one fails first.
func TestMeasureBagFirstInvalidMemberWins(t *testing.T) {
	bag := []Member{
		{Benchmark: "fast", Batch: 20},
		{Benchmark: "fast", Batch: 0},
		{Benchmark: "hog", Batch: 20},
		{Benchmark: "hog", Batch: -1},
	}
	for _, workers := range []int{1, 4} {
		cfg := smallConfig()
		cfg.K = 4
		cfg.Workers = workers
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = g.MeasureBag(bag)
		if err == nil || !strings.HasPrefix(err.Error(), "dataset: fast/0:") {
			t.Errorf("workers=%d: got %v, want the error for fast/0", workers, err)
		}
	}
}

// TestMeasurePanicAttributedToBag: a panic while measuring one member
// reaches Generate as a *parallel.PanicError at the bag's index (not the
// member's), with the stack of the frames that panicked, and does not
// poison the member: once the fault is gone the bag measures cleanly.
func TestMeasurePanicAttributedToBag(t *testing.T) {
	const target = 2
	for _, workers := range []int{1, 4} {
		cfg := smallConfig()
		cfg.Workers = workers
		g, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		bags := mustBags(t, cfg)
		// Measure every member of the bags before the target, so the
		// target's members are the first the fault can reach.
		warm := map[Member]bool{}
		for _, bag := range bags[:target] {
			for _, m := range bag {
				if _, err := g.measure(m); err != nil {
					t.Fatal(err)
				}
				warm[m] = true
			}
		}
		for _, m := range bags[target] {
			if warm[m] {
				t.Fatalf("member %v of bag %d also appears in an earlier bag", m, target)
			}
		}
		g.SetFaultInjector(faultinject.New(faultinject.Plan{Faults: []faultinject.Fault{
			{Site: FaultSiteMeasure, Index: faultinject.AnyIndex, Kind: faultinject.KindPanic},
		}}))
		_, err = g.Generate()
		var pe *parallel.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: Generate returned %v, want *parallel.PanicError", workers, err)
		}
		if pe.Index != target {
			t.Errorf("workers=%d: PanicError.Index = %d, want bag index %d", workers, pe.Index, target)
		}
		var fp *faultinject.Panic
		if !errors.As(err, &fp) || fp.Site != FaultSiteMeasure {
			t.Errorf("workers=%d: panic value %v, want the injected %s panic", workers, pe.Value, FaultSiteMeasure)
		}
		if !strings.Contains(string(pe.Stack), "runMeasurement") {
			t.Errorf("workers=%d: stack lost the panicking frames:\n%s", workers, pe.Stack)
		}

		g.SetFaultInjector(nil)
		runs := g.measured.runs.Load()
		if _, err := g.MeasureBag(bags[target]); err != nil {
			t.Fatalf("workers=%d: bag %d after the fault: %v", workers, target, err)
		}
		if g.measured.runs.Load() == runs {
			t.Errorf("workers=%d: the panicked member was served from the table, not recomputed", workers)
		}
	}
}
