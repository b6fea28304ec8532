package dataset

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"mapc/internal/faultinject"
	"mapc/internal/features"
	"mapc/internal/fsatomic"
	"mapc/internal/phasesum"
)

// The journal makes corpus generation crash-safe: every completed
// measurement point is committed to an append-only on-disk log keyed by
// its canonical bag, so a run killed at point 90/91 resumes by re-measuring
// only the missing bag. Because each Point is a pure function of
// (Config, bag) — the PR-1 worker-invariance property — a corpus assembled
// from journaled points plus freshly measured ones is bit-for-bit identical
// to an uninterrupted run, which the golden-hash chaos tests enforce.
//
// On-disk format (one JSON value per line):
//
//	{"format":"mapc-journal-v1","config_sha256":"<hex>"}   header
//	{"key":"sift/20+surf/20","point":{...}}                 one per point
//
// Records hold *raw* (pre-normalization) points: Section V-C normalization
// is a whole-corpus transform and is re-applied after assembly, exactly as
// in a fresh run. Appends are fsynced per record; Commit (and Close, and
// every resume-open) compacts the log through an atomic temp-file+rename
// write (fsatomic), so the file on disk is always either a previous
// complete state or the new complete state. A crash mid-append can tear
// the final line only; the loader tolerates exactly that by truncating at
// the first unparsable record.
const (
	journalFormat = "mapc-journal-v1"

	// FaultSitePoint is the faultinject site fired once per bag index
	// before it is measured (Generator.SetFaultInjector).
	FaultSitePoint = "dataset.point"
	// FaultSiteMeasure is the faultinject site fired before each member
	// measurement the generator computes (never on a table hit), with
	// the generator's measurement ordinal as index. A KindError fault
	// here fails that member for the generator's lifetime, like any
	// measurement error.
	FaultSiteMeasure = "dataset.measure"
	// FaultSiteJournalAppend is the faultinject site fired once per
	// journal append, with the append ordinal as index
	// (Journal.SetFaultInjector). A KindTornWrite fault here truncates
	// the record mid-write and aborts, simulating a crash between
	// write(2) and fsync.
	FaultSiteJournalAppend = "dataset.journal.append"
)

// BagKey is the canonical journal key for the 2-application bag (a, b) as
// enumerated by Bags(): member order is the enumeration order, so the same
// corpus position always maps to the same key across runs and worker
// counts.
func BagKey(a, b Member) string {
	return BagKeyOf([]Member{a, b})
}

// BagKeyOf is BagKey for k-member bags: members as "<benchmark>/<batch>"
// (batch in decimal) joined by "+" in enumeration order. For k=2 it
// produces exactly the legacy pair key, so v1 journals written by the pair
// pipeline resume unchanged.
func BagKeyOf(bag []Member) string {
	n := 0
	for _, m := range bag {
		n += len(m.Benchmark) + 9 // '/', seven digits up to vision.MaxBatch, '+'
	}
	var b strings.Builder
	b.Grow(n)
	var digits [20]byte
	for i, m := range bag {
		if i > 0 {
			b.WriteByte('+')
		}
		b.WriteString(m.Benchmark)
		b.WriteByte('/')
		b.Write(strconv.AppendInt(digits[:0], int64(m.Batch), 10))
	}
	return b.String()
}

// Fingerprint is a stable digest of every Config field that influences
// measured point values: simulator parameters, batch sizes, threads, seed,
// mixed pairs, ordering, and the effective benchmark list. Workers and
// SimCacheMB are deliberately excluded — outputs are invariant to both
// (points are bit-identical at every worker count and memo budget), so a
// corpus journaled at -workers 8 -simcache-mb 256 may be resumed at
// -workers 1 -simcache-mb 0 and vice versa.
func (c Config) Fingerprint() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cpu=%+v;gpu=%+v;batches=%v;threads=%d;seed=%d;mixed=%d;canonical=%t;benchmarks=%s",
		c.CPU, c.GPU, c.BatchSizes, c.Threads, c.Seed, c.MixedPairs, c.CanonicalOrder,
		strings.Join(c.BenchmarkNames(), ","))
	if c.EffectiveK() > 2 {
		// Appended only beyond the paper's pair corpus so every journal
		// written by the k=2 pipeline keeps its original fingerprint.
		fmt.Fprintf(&sb, ";k=%d", c.EffectiveK())
	}
	if f := c.Fidelity.Effective(); f != phasesum.Exact {
		// Same back-compat pattern as k: exact-fidelity journals (the only
		// kind older pipelines could write) keep their fingerprints, while
		// analytic tiers never mix points with exact corpora.
		fmt.Fprintf(&sb, ";fidelity=%s", f)
	}
	if c.Shares != nil {
		// Non-nil shares change every shared-GPU target, so they join the
		// fingerprint; the nil equal split keeps legacy fingerprints, and
		// an explicit uniform vector is deliberately distinct from nil
		// (bit-identical values, but a different declared intent).
		fmt.Fprintf(&sb, ";shares=%s", c.SharesLabel())
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

type journalHeader struct {
	Format string `json:"format"`
	Config string `json:"config_sha256"`
}

type journalRecord struct {
	Key   string `json:"key"`
	Point Point  `json:"point"`
}

// wellFormed reports whether rec can be a point the generator measured for
// its key: a bag of at least two members that are, as a multiset, the
// key's "+"-separated members, with a feature vector of the bag's width
// and one isolated CPU and GPU time per member. A record that decodes but
// fails this is corrupt, exactly like a torn line.
func (rec *journalRecord) wellFormed() bool {
	p := &rec.Point
	n := len(p.Members)
	if n < 2 || len(p.CPUTimes) != n || len(p.GPUTimes) != n {
		return false
	}
	if apps, err := features.BagSizeForWidth(len(p.X)); err != nil || apps != n {
		return false
	}
	parts := strings.Split(rec.Key, "+")
	if len(parts) != n {
		return false
	}
	members := make([]string, n)
	for i, m := range p.Members {
		members[i] = m.String()
	}
	sort.Strings(parts)
	sort.Strings(members)
	return slices.Equal(parts, members)
}

// Journal is the append-only checkpoint log of completed measurement
// points. Safe for concurrent use: the measurement pool appends from many
// goroutines.
type Journal struct {
	path string
	fp   string

	mu       sync.Mutex
	f        *os.File // nil after Close
	points   map[string]Point
	appended int // appends this session (faultinject index)
	dropped  int // torn/corrupt trailing records discarded at open
	fault    faultinject.Injector
}

// CreateJournal starts a fresh journal at path for cfg, refusing to
// clobber an existing file (pass it to OpenJournal to resume instead).
func CreateJournal(path string, cfg Config) (*Journal, error) {
	fp := cfg.Fingerprint()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		if errors.Is(err, os.ErrExist) {
			return nil, fmt.Errorf("dataset: journal %s already exists; resume it (OpenJournal / -resume) or remove it", path)
		}
		return nil, fmt.Errorf("dataset: creating journal: %w", err)
	}
	j := &Journal{path: path, fp: fp, f: f, points: map[string]Point{}}
	if err := j.writeLine(journalHeader{Format: journalFormat, Config: fp}); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return j, nil
}

// OpenJournal loads an existing journal (or creates a new one when path
// does not exist) and prepares it for appends. The header's config
// fingerprint must match cfg — resuming under different simulator
// parameters would silently mix incompatible points. A torn tail (the one
// partial line a crash mid-append can leave) is discarded and the log is
// compacted atomically before new appends, healing the file in place;
// Dropped reports how many records were discarded.
func OpenJournal(path string, cfg Config) (*Journal, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return CreateJournal(path, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("dataset: opening journal: %w", err)
	}
	points, dropped, err := readJournal(f, cfg.Fingerprint())
	f.Close()
	if err != nil {
		return nil, err
	}
	j := &Journal{path: path, fp: cfg.Fingerprint(), points: points, dropped: dropped}
	// Compact through an atomic rename: heals a torn tail and re-asserts
	// the always-complete-state invariant before any new appends.
	if err := j.commitLocked(); err != nil {
		return nil, err
	}
	af, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("dataset: reopening journal for append: %w", err)
	}
	j.f = af
	return j, nil
}

// readJournal parses the header and records, truncating at the first
// unparsable or malformed record (everything after a torn line is
// suspect).
func readJournal(r io.Reader, wantFP string) (map[string]Point, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, 0, fmt.Errorf("dataset: reading journal header: %w", err)
		}
		return nil, 0, errors.New("dataset: journal is empty (no header)")
	}
	var hdr journalHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, 0, fmt.Errorf("dataset: parsing journal header: %w", err)
	}
	if hdr.Format != journalFormat {
		return nil, 0, fmt.Errorf("dataset: unsupported journal format %q (want %q)", hdr.Format, journalFormat)
	}
	if hdr.Config != wantFP {
		return nil, 0, fmt.Errorf(
			"dataset: journal was written under a different configuration (config_sha256 %.12s… vs %.12s…); "+
				"resume with the original flags or start a fresh journal", hdr.Config, wantFP)
	}
	points := map[string]Point{}
	dropped := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(strings.TrimSpace(string(line))) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil || !rec.wellFormed() {
			// Torn or corrupt record: a crash between write and fsync can
			// tear the final line. Discard it and everything after —
			// those bags are simply re-measured on resume.
			dropped++
			for sc.Scan() {
				dropped++
			}
			break
		}
		points[rec.Key] = rec.Point
	}
	if err := sc.Err(); err != nil {
		return nil, 0, fmt.Errorf("dataset: reading journal: %w", err)
	}
	return points, dropped, nil
}

// SetFaultInjector installs a chaos-testing hook fired once per append at
// FaultSiteJournalAppend. Production code never calls this; the nil
// default costs one pointer check.
func (j *Journal) SetFaultInjector(h faultinject.Injector) {
	j.mu.Lock()
	j.fault = h
	j.mu.Unlock()
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Len returns the number of distinct journaled points.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.points)
}

// Dropped reports how many torn/corrupt trailing records were discarded
// when the journal was opened.
func (j *Journal) Dropped() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Lookup returns the journaled point for key, if present. The point's
// feature slice is a private copy: corpus normalization scales X in place,
// and the journal must keep holding raw values.
func (j *Journal) Lookup(key string) (Point, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	p, ok := j.points[key]
	if ok {
		p.X = append([]float64(nil), p.X...)
	}
	return p, ok
}

// Append durably records one completed point: the record line is written
// and fsynced before Append returns, so a completed measurement survives
// any subsequent crash. Duplicate keys are idempotent (points are pure
// functions of their bag).
func (j *Journal) Append(key string, p Point) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("dataset: append to closed journal")
	}
	idx := j.appended
	j.appended++

	line, err := json.Marshal(journalRecord{Key: key, Point: p})
	if err != nil {
		return fmt.Errorf("dataset: marshaling journal record: %w", err)
	}
	line = append(line, '\n')

	if ferr := faultinject.Fire(j.fault, FaultSiteJournalAppend, idx); ferr != nil {
		var tw *faultinject.TornWrite
		if errors.As(ferr, &tw) {
			// Simulate dying between write(2) and fsync: a prefix of the
			// record reaches the file, then the "process" is gone. The
			// next OpenJournal must truncate this tail.
			keep := tw.KeepBytes
			if keep > len(line)-2 {
				// Never the complete JSON (with or without its newline):
				// that would be a clean record, not a torn one.
				keep = len(line) - 2
			}
			_, _ = j.f.Write(line[:keep])
			_ = j.f.Sync()
		}
		return fmt.Errorf("dataset: journal append %d: %w", idx, ferr)
	}

	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("dataset: appending journal record: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("dataset: syncing journal: %w", err)
	}
	// Store a private copy of the feature slice: the caller's X is later
	// normalized in place (Corpus.normalize), and the journal must keep
	// raw values so a post-run Commit/Close never persists scaled rows.
	p.X = append([]float64(nil), p.X...)
	j.points[key] = p
	return nil
}

// Commit compacts the journal through an atomic temp-file+rename write:
// header plus every known point in sorted-key order. The append handle is
// re-established on the new file. Called by Close and by every
// resume-open; also safe to call at any checkpoint (e.g. on SIGTERM).
func (j *Journal) Commit() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.commitLocked(); err != nil {
		return err
	}
	if j.f != nil {
		// The rename replaced the inode under the old append handle;
		// reopen so future appends land in the committed file.
		j.f.Close()
		f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			j.f = nil
			return fmt.Errorf("dataset: reopening journal after commit: %w", err)
		}
		j.f = f
	}
	return nil
}

// commitLocked writes the compacted journal; caller holds j.mu (or is the
// sole owner during open).
func (j *Journal) commitLocked() error {
	keys := make([]string, 0, len(j.points))
	for k := range j.points {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return fsatomic.WriteFile(j.path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		if err := enc.Encode(journalHeader{Format: journalFormat, Config: j.fp}); err != nil {
			return err
		}
		for _, k := range keys {
			if err := enc.Encode(journalRecord{Key: k, Point: j.points[k]}); err != nil {
				return err
			}
		}
		return nil
	})
}

// Close commits and releases the journal. Further appends fail. Safe to
// call twice.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.f == nil {
		j.mu.Unlock()
		return nil
	}
	err := j.commitLocked()
	cerr := j.f.Close()
	j.f = nil
	j.mu.Unlock()
	if err != nil {
		return err
	}
	return cerr
}

// writeLine encodes one JSON line to the live file and fsyncs it.
func (j *Journal) writeLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("dataset: writing journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("dataset: syncing journal: %w", err)
	}
	return nil
}
