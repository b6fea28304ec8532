package dataset

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mapc/internal/faultinject"
	"mapc/internal/features"
	"mapc/internal/phasesum"
)

// syntheticPoint builds a recognizable fake point for journal I/O tests
// (no simulation required). It is well formed — a pair-width feature
// vector and one time per member — so the loader keeps it when it is
// journaled under syntheticKey(i).
func syntheticPoint(i int) Point {
	x := make([]float64, 2*features.PerApp+1)
	x[0], x[1], x[len(x)-1] = float64(i), 1.5*float64(i), 0.125
	return Point{
		Members: []Member{
			{Benchmark: "sift", Batch: 20 * (i + 1)},
			{Benchmark: "surf", Batch: 20 * (i + 1)},
		},
		X:        x,
		Y:        0.001 * float64(i+1),
		Fairness: 0.5,
		CPUTimes: []float64{1, 2},
		GPUTimes: []float64{3, 4},
	}
}

// syntheticKey is the journal key of syntheticPoint(i).
func syntheticKey(i int) string { return BagKeyOf(syntheticPoint(i).Members) }

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "corpus.journal")
}

func TestJournalRoundTrip(t *testing.T) {
	cfg := smallConfig()
	path := journalPath(t)
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts := map[string]Point{}
	for i := 0; i < 3; i++ {
		p := syntheticPoint(i)
		key := BagKey(p.Members[0], p.Members[1])
		if err := j.Append(key, p); err != nil {
			t.Fatal(err)
		}
		pts[key] = p
	}
	if j.Len() != 3 {
		t.Fatalf("Len = %d, want 3", j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Close is idempotent.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Appends after Close fail loudly.
	if err := j.Append("x", syntheticPoint(9)); err == nil {
		t.Fatal("append to closed journal succeeded")
	}

	j2, err := OpenJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 3 || j2.Dropped() != 0 {
		t.Fatalf("reopened Len=%d Dropped=%d, want 3/0", j2.Len(), j2.Dropped())
	}
	for key, want := range pts {
		got, ok := j2.Lookup(key)
		if !ok {
			t.Fatalf("key %s missing after reopen", key)
		}
		if got.Y != want.Y || BagKeyOf(got.Members) != BagKeyOf(want.Members) || len(got.X) != len(want.X) {
			t.Fatalf("key %s: %+v != %+v", key, got, want)
		}
		for i := range want.X {
			if got.X[i] != want.X[i] {
				t.Fatalf("key %s: X[%d] = %v, want %v", key, i, got.X[i], want.X[i])
			}
		}
	}
}

func TestCreateJournalRefusesExisting(t *testing.T) {
	cfg := smallConfig()
	path := journalPath(t)
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := CreateJournal(path, cfg); err == nil {
		t.Fatal("CreateJournal clobbered an existing journal")
	} else if !strings.Contains(err.Error(), "resume") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestOpenJournalCreatesWhenMissing(t *testing.T) {
	cfg := smallConfig()
	j, err := OpenJournal(journalPath(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 0 {
		t.Fatalf("fresh journal Len = %d", j.Len())
	}
}

func TestOpenJournalRejectsConfigMismatch(t *testing.T) {
	cfg := smallConfig()
	path := journalPath(t)
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append("k", syntheticPoint(0)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	for name, mut := range map[string]func(*Config){
		"seed": func(c *Config) { c.Seed++ },
		"fast": func(c *Config) { c.Fidelity = phasesum.Fast },
	} {
		other := cfg
		mut(&other)
		if _, err := OpenJournal(path, other); err == nil {
			t.Fatalf("%s: journal resumed under a different configuration", name)
		} else if !strings.Contains(err.Error(), "different configuration") {
			t.Errorf("%s: undescriptive mismatch error: %v", name, err)
		}
	}

	// A journal written at the retired "mixed" tier carries a fingerprint
	// no valid configuration produces, so neither tier resumes it.
	mixed := cfg
	mixed.Fidelity = "mixed"
	mixedPath := journalPath(t)
	jm, err := CreateJournal(mixedPath, mixed)
	if err != nil {
		t.Fatal(err)
	}
	jm.Close()
	for _, fid := range []phasesum.Fidelity{phasesum.Exact, phasesum.Fast} {
		other := cfg
		other.Fidelity = fid
		if _, err := OpenJournal(mixedPath, other); err == nil || !strings.Contains(err.Error(), "different configuration") {
			t.Errorf("%s: mixed-tier journal not refused: %v", fid, err)
		}
	}

	// Worker count must NOT invalidate a journal (outputs are
	// worker-invariant by construction).
	sameButParallel := cfg
	sameButParallel.Workers = 8
	j2, err := OpenJournal(path, sameButParallel)
	if err != nil {
		t.Fatalf("worker count invalidated the journal: %v", err)
	}
	j2.Close()
}

func TestFingerprintSensitivity(t *testing.T) {
	cfg := smallConfig()
	base := cfg.Fingerprint()
	if cfgW := cfg; true {
		cfgW.Workers = 5
		if cfgW.Fingerprint() != base {
			t.Error("Workers changed the fingerprint")
		}
	}
	for name, mut := range map[string]func(*Config){
		"seed":    func(c *Config) { c.Seed++ },
		"threads": func(c *Config) { c.Threads++ },
		"batches": func(c *Config) { c.BatchSizes = []int{20, 40} },
		"bench":   func(c *Config) { c.Benchmarks = []string{"fast", "hog"} },
		"cpu":     func(c *Config) { c.CPU.PrefetchDegree = 2 },
		"gpu":     func(c *Config) { c.GPU.SMs++ },
		"mixed":   func(c *Config) { c.MixedPairs++ },
	} {
		c := smallConfig()
		mut(&c)
		if c.Fingerprint() == base {
			t.Errorf("%s change did not move the fingerprint", name)
		}
	}
}

// TestJournalTornTailTolerated is the loader half of the torn-write
// contract: a file whose final line is a partial record (crash between
// write and fsync) loads cleanly minus the torn record, and the
// resume-open compacts the file back to a fully parsable state.
func TestJournalTornTailTolerated(t *testing.T) {
	cfg := smallConfig()
	path := journalPath(t)
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(syntheticKey(0), syntheticPoint(0)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Tear the file by hand: append a partial record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"torn","point":{"Members"`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path, cfg)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if j2.Len() != 1 || j2.Dropped() != 1 {
		t.Fatalf("Len=%d Dropped=%d, want 1/1", j2.Len(), j2.Dropped())
	}
	if _, ok := j2.Lookup(syntheticKey(0)); !ok {
		t.Fatal("intact record lost")
	}
	if _, ok := j2.Lookup("torn"); ok {
		t.Fatal("torn record resurrected")
	}
	j2.Close()

	// The resume-open compacted the file: a third open sees zero drops.
	j3, err := OpenJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if j3.Dropped() != 0 || j3.Len() != 1 {
		t.Fatalf("compaction did not heal the tear: Len=%d Dropped=%d", j3.Len(), j3.Dropped())
	}
	j3.Close()
}

// TestJournalCorruptMiddleTruncates: WAL semantics — everything at and
// after the first unparsable record is discarded, even when later lines
// parse.
func TestJournalCorruptMiddleTruncates(t *testing.T) {
	cfg := smallConfig()
	path := journalPath(t)
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(syntheticKey(0), syntheticPoint(0)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A corrupt line followed by a well-formed one.
	if _, err := f.WriteString("NOT JSON\n{\"key\":\"b\",\"point\":{}}\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := OpenJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 1 || j2.Dropped() != 2 {
		t.Fatalf("Len=%d Dropped=%d, want 1 kept and 2 dropped", j2.Len(), j2.Dropped())
	}
	if _, ok := j2.Lookup("b"); ok {
		t.Fatal("record after corruption trusted")
	}
}

// TestJournalMalformedRecordTruncates: a record that decodes but cannot be
// the point measured for its key is corrupt — it and everything after it
// are dropped — while a record whose members are a permutation of its
// key's is kept.
func TestJournalMalformedRecordTruncates(t *testing.T) {
	good := syntheticPoint(1)
	cases := []struct {
		name string
		key  string
		mut  func(*Point)
		keep bool
	}{
		{"well formed", syntheticKey(1), func(*Point) {}, true},
		{"permuted members", syntheticKey(1), func(p *Point) {
			p.Members[0], p.Members[1] = p.Members[1], p.Members[0]
		}, true},
		{"empty point", syntheticKey(1), func(p *Point) { *p = Point{} }, false},
		{"one member", "sift/40", func(p *Point) {
			p.Members, p.CPUTimes, p.GPUTimes = p.Members[:1], p.CPUTimes[:1], p.GPUTimes[:1]
			p.X = p.X[:features.PerApp+1]
		}, false},
		{"members not the key's", "sift/40+sift/40", func(*Point) {}, false},
		{"key has an extra member", syntheticKey(1) + "+knn/20", func(*Point) {}, false},
		{"short feature vector", syntheticKey(1), func(p *Point) { p.X = p.X[:3] }, false},
		{"feature vector of another bag size", syntheticKey(1), func(p *Point) {
			p.X = append(p.X, make([]float64, features.PerApp)...)
		}, false},
		{"missing CPU time", syntheticKey(1), func(p *Point) { p.CPUTimes = p.CPUTimes[:1] }, false},
		{"extra GPU time", syntheticKey(1), func(p *Point) { p.GPUTimes = append(p.GPUTimes, 5) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			path := journalPath(t)
			j, err := CreateJournal(path, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(syntheticKey(0), syntheticPoint(0)); err != nil {
				t.Fatal(err)
			}
			p := syntheticPoint(1)
			tc.mut(&p)
			if err := j.Append(tc.key, p); err != nil {
				t.Fatal(err)
			}
			if err := j.Append(syntheticKey(2), syntheticPoint(2)); err != nil {
				t.Fatal(err)
			}
			// Abandon j uncommitted: the records stay in append order.
			j2, err := OpenJournal(path, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			wantLen, wantDropped := 1, 2
			if tc.keep {
				wantLen, wantDropped = 3, 0
			}
			if j2.Len() != wantLen || j2.Dropped() != wantDropped {
				t.Fatalf("Len=%d Dropped=%d, want %d/%d", j2.Len(), j2.Dropped(), wantLen, wantDropped)
			}
			if got, ok := j2.Lookup(tc.key); ok != tc.keep {
				t.Fatalf("record kept=%v, want %v", ok, tc.keep)
			} else if ok && got.Y != good.Y {
				t.Fatalf("kept record Y=%v, want %v", got.Y, good.Y)
			}
		})
	}
}

func TestJournalRejectsForeignHeader(t *testing.T) {
	cfg := smallConfig()
	path := journalPath(t)
	if err := os.WriteFile(path, []byte(`{"format":"mapc-journal-v999","config_sha256":"x"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, cfg); err == nil || !strings.Contains(err.Error(), "format") {
		t.Fatalf("foreign format accepted: %v", err)
	}
	if err := os.WriteFile(path, []byte("\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, cfg); err == nil {
		t.Fatal("headerless journal accepted")
	}
}

// TestJournalKeepsRawValues pins the aliasing contract: corpus
// normalization scales Point.X in place after generation, and neither
// direction of sharing may leak scaled values into the journal.
func TestJournalKeepsRawValues(t *testing.T) {
	cfg := smallConfig()
	path := journalPath(t)
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := syntheticPoint(1)
	raw := append([]float64(nil), p.X...)
	if err := j.Append(syntheticKey(1), p); err != nil {
		t.Fatal(err)
	}

	// Caller-side mutation (what normalize() does) must not reach the
	// journal...
	for i := range p.X {
		p.X[i] *= 1e6
	}
	// ...nor must mutating a looked-up copy.
	got, _ := j.Lookup(syntheticKey(1))
	for i := range got.X {
		got.X[i] = -1
	}
	if err := j.Close(); err != nil { // Close commits the compacted file
		t.Fatal(err)
	}

	j2, err := OpenJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	reread, ok := j2.Lookup(syntheticKey(1))
	if !ok {
		t.Fatal("record lost")
	}
	for i := range raw {
		if reread.X[i] != raw[i] {
			t.Fatalf("journal leaked mutated X[%d]=%v, want raw %v", i, reread.X[i], raw[i])
		}
	}
}

// TestJournalTornWriteFaultInjection drives the writer half of the torn
// write through the faultinject hook: the injected fault must leave a
// genuinely torn file that the next open heals.
func TestJournalTornWriteFaultInjection(t *testing.T) {
	cfg := smallConfig()
	path := journalPath(t)
	j, err := CreateJournal(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	j.SetFaultInjector(faultinject.New(faultinject.Plan{Faults: []faultinject.Fault{
		{Site: FaultSiteJournalAppend, Index: 1, Kind: faultinject.KindTornWrite, KeepBytes: 10, Once: true},
	}}))

	if err := j.Append(syntheticKey(0), syntheticPoint(0)); err != nil {
		t.Fatal(err)
	}
	err = j.Append("b", syntheticPoint(1))
	var tw *faultinject.TornWrite
	if !errors.As(err, &tw) {
		t.Fatalf("append under torn-write fault returned %v", err)
	}
	if _, ok := j.Lookup("b"); ok {
		t.Fatal("torn record entered the in-memory journal")
	}
	// Abandon j without Close: the process "died" here. The on-disk file
	// now ends in a 10-byte partial record.
	j3, err := OpenJournal(path, cfg)
	if err != nil {
		t.Fatalf("open after simulated torn write: %v", err)
	}
	defer j3.Close()
	if j3.Len() != 1 || j3.Dropped() != 1 {
		t.Fatalf("Len=%d Dropped=%d after torn write, want 1/1", j3.Len(), j3.Dropped())
	}
}
