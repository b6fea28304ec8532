package dataset

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"testing"

	"mapc/internal/faultinject"
	"mapc/internal/parallel"
)

// countingInjector implements faultinject.Injector without injecting
// anything: it counts how many bags a generation run actually measured
// (FaultSitePoint fires once per freshly measured bag, never for
// journal-restored ones).
type countingInjector struct{ n atomic.Int64 }

func (c *countingInjector) At(site string, index int) error {
	if site == FaultSitePoint {
		c.n.Add(1)
	}
	return nil
}

// funcInjector adapts a closure to faultinject.Injector for bespoke chaos
// (e.g. cancelling a context at a chosen append).
type funcInjector func(site string, index int) error

func (f funcInjector) At(site string, index int) error { return f(site, index) }

// mustBags returns the canonical bag list for cfg.
func mustBags(t *testing.T, cfg Config) [][]Member {
	t.Helper()
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bags, err := gen.Bags()
	if err != nil {
		t.Fatal(err)
	}
	return bags
}

// resumeToCompletion opens the journal at path ("after the crash": a fresh
// Journal and a fresh Generator, as a restarted process would have) and
// finishes the run, returning the corpus and how many bags it re-measured.
func resumeToCompletion(t *testing.T, cfg Config, path string) (*Corpus, int) {
	t.Helper()
	j, err := OpenJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingInjector{}
	gen.SetFaultInjector(counter)
	c, err := gen.Resume(context.Background(), j)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	return c, int(counter.n.Load())
}

// TestChaosKillAndResume is the headline crash-equivalence invariant: a
// corpus run killed by an injected panic at a seed-chosen bag, then
// resumed by a fresh generator from the journal, must hash bit-identically
// (goldenSmallCorpusHash, the PR-3 golden) to an uninterrupted run — at
// workers=1 and workers=8, across several kill seeds.
func TestChaosKillAndResume(t *testing.T) {
	cfg := smallConfig()
	nBags := len(mustBags(t, cfg))
	for _, workers := range []int{1, 8} {
		for seed := uint64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("workers=%d/seed=%d", workers, seed), func(t *testing.T) {
				runCfg := cfg
				runCfg.Workers = workers
				path := journalPath(t)

				// Doomed run: dies with an injected panic at a random bag.
				j, err := CreateJournal(path, runCfg)
				if err != nil {
					t.Fatal(err)
				}
				gen, err := NewGenerator(runCfg)
				if err != nil {
					t.Fatal(err)
				}
				plan := faultinject.RandomKillPlan(seed, FaultSitePoint, nBags)
				killIdx := plan.Faults[0].Index
				gen.SetFaultInjector(faultinject.New(plan))
				_, err = gen.Resume(context.Background(), j)
				var pe *parallel.PanicError
				if !errors.As(err, &pe) {
					t.Fatalf("killed run returned %v, want *parallel.PanicError", err)
				}
				if pe.Index > killIdx {
					// Lowest-index-failure rule: the reported index is the
					// kill site unless an even earlier bag also failed
					// (impossible here).
					t.Errorf("PanicError.Index = %d, kill was at %d", pe.Index, killIdx)
				}
				var ip *faultinject.Panic
				if !errors.As(err, &ip) {
					t.Errorf("panic value lost through recovery: %v", pe.Value)
				}
				// The process "died": abandon j without Close/Commit, so
				// resume sees exactly what fsync left on disk.

				// The journal must hold fewer points than the full corpus
				// (the killed bag can never have committed).
				j2, err := OpenJournal(path, runCfg)
				if err != nil {
					t.Fatal(err)
				}
				journaled := j2.Len()
				j2.Close()
				if journaled >= nBags {
					t.Fatalf("journal holds %d/%d points despite the kill", journaled, nBags)
				}

				c, measured := resumeToCompletion(t, runCfg, path)
				if got := hashCorpus(c); got != goldenSmallCorpusHash {
					t.Errorf("resumed corpus hash = %s, want uninterrupted golden %s\n"+
						"kill-and-resume broke bit-identity (workers=%d, seed=%d, killed bag %d)",
						got, goldenSmallCorpusHash, workers, seed, killIdx)
				}
				if measured != nBags-journaled {
					t.Errorf("resume re-measured %d bags, want exactly the %d missing ones",
						measured, nBags-journaled)
				}
			})
		}
	}
}

// TestResumeAfterContextCancel is the SIGTERM path: cancelling the context
// mid-run (here, after the second journal append) stops the pool cleanly,
// the journal stays valid, and a resume completes to the golden hash.
func TestResumeAfterContextCancel(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 4
	nBags := len(mustBags(t, cfg))
	path := journalPath(t)

	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.SetFaultInjector(funcInjector(func(site string, index int) error {
		if site == FaultSiteJournalAppend && index == 1 {
			cancel() // "SIGTERM" lands while measurements are in flight
		}
		return nil
	}))
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = gen.Resume(ctx, j)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	// Clean shutdown commits and closes the journal (what mapc-datagen
	// does on SIGTERM).
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	c, measured := resumeToCompletion(t, cfg, path)
	if got := hashCorpus(c); got != goldenSmallCorpusHash {
		t.Errorf("corpus after cancel+resume hash = %s, want %s", got, goldenSmallCorpusHash)
	}
	if measured >= nBags {
		t.Errorf("resume re-measured all %d bags; the pre-cancel points were not reused", measured)
	}
}

// TestChaosTornWriteKillAndResume composes both fault classes: the run
// dies on a torn journal write, leaving a genuinely truncated record on
// disk; the resume must heal the tear and still reach the golden hash.
func TestChaosTornWriteKillAndResume(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 8
	nBags := len(mustBags(t, cfg))
	path := journalPath(t)

	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.SetFaultInjector(faultinject.New(faultinject.RandomTearPlan(3, FaultSiteJournalAppend, nBags/2, 24)))
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = gen.Resume(context.Background(), j)
	var tw *faultinject.TornWrite
	if !errors.As(err, &tw) {
		t.Fatalf("torn-write run returned %v, want *faultinject.TornWrite", err)
	}
	// Process death: abandon the journal handle.

	c, _ := resumeToCompletion(t, cfg, path)
	if got := hashCorpus(c); got != goldenSmallCorpusHash {
		t.Errorf("corpus after torn-write+resume hash = %s, want %s", got, goldenSmallCorpusHash)
	}
}

// TestResumeCompletedJournalMeasuresNothing: resuming a finished run is a
// pure replay — zero new measurements, identical corpus.
func TestResumeCompletedJournalMeasuresNothing(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 4
	path := journalPath(t)

	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := gen.Resume(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := hashCorpus(first); got != goldenSmallCorpusHash {
		t.Fatalf("journaled full run hash = %s, want golden %s (journaling perturbed generation)", got, goldenSmallCorpusHash)
	}

	replay, measured := resumeToCompletion(t, cfg, path)
	if measured != 0 {
		t.Errorf("replay re-measured %d bags, want 0", measured)
	}
	if got := hashCorpus(replay); got != goldenSmallCorpusHash {
		t.Errorf("replayed corpus hash = %s, want %s", got, goldenSmallCorpusHash)
	}
}

// TestGeneratePanicYieldsPanicError is the acceptance check for panic
// containment in the measurement pool without any journal: a panic
// injected into one measurement task surfaces as a *parallel.PanicError
// (index + stack) from Generate instead of killing the process.
func TestGeneratePanicYieldsPanicError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := smallConfig()
		cfg.Workers = workers
		gen, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		gen.SetFaultInjector(faultinject.New(faultinject.Plan{Faults: []faultinject.Fault{
			{Site: FaultSitePoint, Index: 3, Kind: faultinject.KindPanic, Once: true},
		}}))
		_, err = gen.Generate()
		var pe *parallel.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: Generate returned %v, want *parallel.PanicError", workers, err)
		}
		if pe.Index != 3 {
			t.Errorf("workers=%d: PanicError.Index = %d, want 3", workers, pe.Index)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: stack not captured", workers)
		}
	}
}

// TestResumeNilJournal pins the API contract.
func TestResumeNilJournal(t *testing.T) {
	gen, err := NewGenerator(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gen.Resume(context.Background(), nil); err == nil {
		t.Fatal("nil journal accepted")
	}
}

// TestResumeMalformedRecordRemeasured: a journal record that decodes but
// cannot be the point measured for its key (here an empty point under a
// planned bag's key) is corrupt, like a torn line: resume drops it,
// re-measures the bag and reproduces the uninterrupted corpus.
func TestResumeMalformedRecordRemeasured(t *testing.T) {
	cfg := smallConfig()
	cfg.Workers = 4
	bags := mustBags(t, cfg)
	path := journalPath(t)
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(f, "{\"key\":%q,\"point\":{}}\n", BagKeyOf(bags[0])); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingInjector{}
	gen.SetFaultInjector(counter)
	c, err := gen.Resume(context.Background(), j2)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if j2.Dropped() != 1 {
		t.Errorf("Dropped=%d, want the malformed record dropped", j2.Dropped())
	}
	if measured := int(counter.n.Load()); measured != len(bags) {
		t.Errorf("resume measured %d bags, want all %d", measured, len(bags))
	}
	if got := hashCorpus(c); got != goldenSmallCorpusHash {
		t.Errorf("corpus after a malformed record hash = %s, want %s", got, goldenSmallCorpusHash)
	}
}
