// Package trace is the instrumentation substrate of the reproduction: the
// stand-in for PIN. Vision benchmarks are written against instrumented
// primitives that report their dynamic behaviour to a Recorder, which
// assembles a Workload — an architecture-neutral description of the program
// as a sequence of Phases. Each phase carries the dynamic instruction counts
// by ISA category, the bytes it touches, its dominant memory-access pattern,
// and how much data parallelism it exposes.
//
// The CPU and GPU simulators consume Workloads; the MICA-equivalent analyzer
// reduces them to instruction-mix percentages. Because the counts come from
// running the real algorithms, different benchmarks produce genuinely
// different mixes and footprints, exactly as PIN+MICA observed for the
// paper's OpenCV suite.
package trace

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"mapc/internal/isa"
)

// Pattern classifies the dominant memory-access behaviour of a phase. The
// cache and TLB simulators synthesize address streams from it.
type Pattern int

const (
	// Sequential phases stream linearly through their footprint
	// (e.g. image row scans, integral-image passes).
	Sequential Pattern = iota
	// Strided phases walk the footprint with a fixed stride larger than
	// one element (e.g. column passes, downsampling).
	Strided
	// Windowed phases access small 2D neighbourhoods that slide across the
	// footprint (e.g. convolution, census windows); high short-range reuse.
	Windowed
	// Random phases touch the footprint with little locality
	// (e.g. feature matching, hash probes, SVM cache misses).
	Random
	numPatterns
)

var patternNames = [numPatterns]string{"sequential", "strided", "windowed", "random"}

// String returns the lower-case name of the pattern.
func (p Pattern) String() string {
	if p < 0 || p >= numPatterns {
		return fmt.Sprintf("trace.Pattern(%d)", int(p))
	}
	return patternNames[p]
}

// Phase is one homogeneous region of execution.
type Phase struct {
	// Name identifies the phase for debugging and reports
	// (e.g. "gaussian-pyramid", "brief-descriptors").
	Name string
	// Counts holds dynamic instruction counts by category.
	Counts isa.Counts
	// Footprint is the number of distinct bytes the phase touches.
	Footprint int64
	// Pattern is the dominant access pattern of the phase.
	Pattern Pattern
	// StrideBytes is the stride for Strided phases (ignored otherwise).
	StrideBytes int64
	// Reuse in [0,1] is the fraction of memory references that re-touch
	// recently used lines (temporal locality beyond the pattern itself).
	Reuse float64
	// Parallelism is the number of independent work items the phase
	// exposes (pixels, windows, keypoints, training pairs...). It bounds
	// how many CPU threads or GPU threads can be productively used.
	Parallelism int
	// VectorWidth is the SIMD width (elements) the phase's inner loop
	// admits; 1 means purely scalar.
	VectorWidth int
	// BatchInvariant marks phases whose cost does not grow with the
	// input batch (e.g. one-time model training); sampled-run
	// extrapolation leaves them unscaled.
	BatchInvariant bool
	// Launches is the number of kernel launches (GPU) or parallel-region
	// entries (CPU) the phase performs — per-image phases extrapolated
	// to a full batch launch once per image. Zero means one.
	Launches int
}

// LaunchCount returns Launches, treating zero as one.
func (p *Phase) LaunchCount() int {
	if p.Launches < 1 {
		return 1
	}
	return p.Launches
}

// Validate reports whether the phase is internally consistent.
func (p *Phase) Validate() error {
	switch {
	case p.Name == "":
		return errors.New("trace: phase has empty name")
	case p.Footprint < 0:
		return fmt.Errorf("trace: phase %q has negative footprint", p.Name)
	case !(p.Reuse >= 0 && p.Reuse <= 1): // also rejects NaN
		return fmt.Errorf("trace: phase %q reuse %v outside [0,1]", p.Name, p.Reuse)
	case p.Parallelism <= 0:
		return fmt.Errorf("trace: phase %q has non-positive parallelism", p.Name)
	case p.VectorWidth <= 0:
		return fmt.Errorf("trace: phase %q has non-positive vector width", p.Name)
	case p.Pattern < 0 || p.Pattern >= numPatterns:
		return fmt.Errorf("trace: phase %q has invalid pattern", p.Name)
	case p.Pattern == Strided && p.StrideBytes <= 0:
		return fmt.Errorf("trace: strided phase %q needs positive stride", p.Name)
	}
	return nil
}

// MemRefs returns the number of memory-reference instructions in the phase.
func (p *Phase) MemRefs() uint64 { return p.Counts[isa.MEM] }

// Workload is the complete instrumented description of one benchmark run.
type Workload struct {
	// Benchmark is the benchmark identifier (e.g. "sift").
	Benchmark string
	// BatchSize is the number of input images processed.
	BatchSize int
	// TransferBytes is the host-to-device input volume (the image batch)
	// a GPU execution must move over PCIe before the kernels run.
	TransferBytes int64
	// Phases lists the execution phases in program order.
	Phases []Phase
}

// Validate checks the workload and every phase in it.
func (w *Workload) Validate() error {
	if w.Benchmark == "" {
		return errors.New("trace: workload has empty benchmark name")
	}
	if w.BatchSize <= 0 {
		return fmt.Errorf("trace: workload %q has non-positive batch size", w.Benchmark)
	}
	if w.TransferBytes < 0 {
		return fmt.Errorf("trace: workload %q has negative transfer bytes %d", w.Benchmark, w.TransferBytes)
	}
	if len(w.Phases) == 0 {
		return fmt.Errorf("trace: workload %q has no phases", w.Benchmark)
	}
	for i := range w.Phases {
		if err := w.Phases[i].Validate(); err != nil {
			return fmt.Errorf("phase %d: %w", i, err)
		}
	}
	return nil
}

// TotalCounts sums the instruction counts across all phases.
func (w *Workload) TotalCounts() isa.Counts {
	var total isa.Counts
	for i := range w.Phases {
		total.AddCounts(w.Phases[i].Counts)
	}
	return total
}

// Instructions returns the total dynamic instruction count.
func (w *Workload) Instructions() uint64 { return w.TotalCounts().Total() }

// Clone returns a deep copy of the workload.
func (w *Workload) Clone() *Workload {
	out := *w
	out.Phases = append([]Phase(nil), w.Phases...)
	return &out
}

// fnv64Offset and fnv64Prime are the FNV-1a 64-bit parameters; the hash is
// written out by hand so Fingerprint is allocation-free on hot paths.
const (
	fnv64Offset = 14695981039346656037
	fnv64Prime  = 1099511628211
)

// fnvHash is a zero-allocation incremental FNV-1a 64-bit hasher.
type fnvHash uint64

func (h *fnvHash) str(s string) {
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= fnv64Prime
	}
	// NUL separator so adjacent strings cannot alias ("ab","c" vs "a","bc").
	x ^= 0
	x *= fnv64Prime
	*h = fnvHash(x)
}

func (h *fnvHash) u64(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= fnv64Prime
		v >>= 8
	}
	*h = fnvHash(x)
}

func (h *fnvHash) i64(v int64) { h.u64(uint64(v)) }

func (h *fnvHash) f64(v float64) { h.u64(math.Float64bits(v)) }

func (h *fnvHash) bool(v bool) {
	if v {
		h.u64(1)
	} else {
		h.u64(0)
	}
}

// Fingerprint returns a 64-bit FNV-1a digest over every field of the
// workload: benchmark identity, batch size, transfer volume, and the full
// content of each phase (name, per-category instruction counts, footprint,
// pattern, stride, reuse, parallelism, vector width, batch invariance,
// launches) in phase order.
//
// Two call sites rely on it:
//
//   - the simulators' memo layer (internal/simcache) keys cached pure
//     prefixes by it, so any change to any field — including ones a given
//     prefix does not read — forces a recompute rather than a stale hit;
//   - the read-only-contract tests deep-hash workloads before and after
//     simulator runs to prove the simulators never mutate their inputs.
//
// The hash is deterministic across processes and allocation-free.
func (w *Workload) Fingerprint() uint64 {
	h := fnvHash(fnv64Offset)
	h.str(w.Benchmark)
	h.i64(int64(w.BatchSize))
	h.i64(w.TransferBytes)
	h.i64(int64(len(w.Phases)))
	for i := range w.Phases {
		p := &w.Phases[i]
		h.str(p.Name)
		for _, c := range p.Counts {
			h.u64(c)
		}
		h.i64(p.Footprint)
		h.i64(int64(p.Pattern))
		h.i64(p.StrideBytes)
		h.f64(p.Reuse)
		h.i64(int64(p.Parallelism))
		h.i64(int64(p.VectorWidth))
		h.bool(p.BatchInvariant)
		h.i64(int64(p.Launches))
	}
	return uint64(h)
}

// String summarises the workload for logs.
func (w *Workload) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(batch=%d, phases=%d, instr=%d)",
		w.Benchmark, w.BatchSize, len(w.Phases), w.Instructions())
	return b.String()
}

// Recorder accumulates phases as instrumented code runs. It is the PIN
// analogue: primitives call the counting methods, and benchmark drivers
// bracket regions with BeginPhase/EndPhase. The zero value is ready to use.
type Recorder struct {
	benchmark string
	batchSize int
	phases    []Phase
	cur       *Phase
	err       error
}

// NewRecorder returns a recorder for one run of the named benchmark.
func NewRecorder(benchmark string, batchSize int) *Recorder {
	return &Recorder{benchmark: benchmark, batchSize: batchSize}
}

// PhaseOpts carries the phase-level metadata that counting alone cannot
// observe: locality, parallel structure, vectorizability.
type PhaseOpts struct {
	Pattern        Pattern
	StrideBytes    int64
	Reuse          float64
	Parallelism    int
	VectorWidth    int
	BatchInvariant bool
}

// BeginPhase opens a new phase; counts recorded until EndPhase belong to it.
// Nested phases are an instrumentation bug and are recorded as an error.
// A nil recorder ignores all instrumentation calls, so instrumented code can
// also run un-instrumented.
func (r *Recorder) BeginPhase(name string, footprint int64, opts PhaseOpts) {
	if r == nil {
		return
	}
	if r.cur != nil {
		r.fail(fmt.Errorf("trace: BeginPhase(%q) while phase %q open", name, r.cur.Name))
		return
	}
	vw := opts.VectorWidth
	if vw == 0 {
		vw = 1
	}
	par := opts.Parallelism
	if par == 0 {
		par = 1
	}
	r.cur = &Phase{
		Name:           name,
		Footprint:      footprint,
		Pattern:        opts.Pattern,
		StrideBytes:    opts.StrideBytes,
		Reuse:          opts.Reuse,
		Parallelism:    par,
		VectorWidth:    vw,
		BatchInvariant: opts.BatchInvariant,
	}
}

// EndPhase closes the current phase and appends it to the workload.
func (r *Recorder) EndPhase() {
	if r == nil {
		return
	}
	if r.cur == nil {
		r.fail(errors.New("trace: EndPhase with no open phase"))
		return
	}
	if err := r.cur.Validate(); err != nil {
		r.fail(err)
		r.cur = nil
		return
	}
	r.phases = append(r.phases, *r.cur)
	r.cur = nil
}

func (r *Recorder) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Count records n dynamic instructions of category c in the current phase.
// Counts outside any phase indicate an instrumentation bug and are dropped
// with a recorded error.
func (r *Recorder) Count(c isa.Category, n uint64) {
	if r == nil {
		return
	}
	if r.cur == nil {
		r.fail(fmt.Errorf("trace: Count(%v) outside any phase", c))
		return
	}
	r.cur.Counts.Add(c, n)
}

// Convenience counters used pervasively by the vision primitives.

// ALU records n scalar integer operations.
func (r *Recorder) ALU(n uint64) { r.Count(isa.ALU, n) }

// FP records n scalar floating-point operations.
func (r *Recorder) FP(n uint64) { r.Count(isa.FP, n) }

// SSE records n packed/vector operations.
func (r *Recorder) SSE(n uint64) { r.Count(isa.SSE, n) }

// Mem records n memory references (loads plus stores).
func (r *Recorder) Mem(n uint64) { r.Count(isa.MEM, n) }

// Shift records n shift or multiply operations.
func (r *Recorder) Shift(n uint64) { r.Count(isa.Shift, n) }

// Stack records n stack push/pop operations.
func (r *Recorder) Stack(n uint64) { r.Count(isa.Stack, n) }

// Str records n string/byte-block operations.
func (r *Recorder) Str(n uint64) { r.Count(isa.String, n) }

// Control records n branch/call/return operations.
func (r *Recorder) Control(n uint64) { r.Count(isa.Control, n) }

// Workload finalizes the recording. It returns an error if instrumentation
// was inconsistent (unbalanced phases, counts outside phases, invalid phase
// metadata) or if nothing was recorded.
func (r *Recorder) Workload() (*Workload, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.cur != nil {
		return nil, fmt.Errorf("trace: workload finalized with phase %q still open", r.cur.Name)
	}
	w := &Workload{Benchmark: r.benchmark, BatchSize: r.batchSize, Phases: r.phases}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, nil
}
