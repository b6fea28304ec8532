// Package phasesum is the fast fidelity tier's analytic core: compact
// per-phase summaries of sampled reference streams (reuse-distance
// sketches over cache lines and pages) and a closed-form shared-capacity
// contention model that estimates co-run miss rates from summaries alone,
// without replaying a single reference.
//
// The exact simulators (cpusim, gpusim) interleave every client's sampled
// address stream into genuinely shared structures — the CPU LLC, the GPU
// L2 and TLB — which costs O(total references) per bag. The summaries here
// are built once per (workload, slot) from that slot's stream and memoized
// by the simulators; a bag's contended miss rates then cost O(phases x
// histogram buckets), which is what lifts corpus generation past 100
// points/sec.
//
// The model follows the phase/basic-block-granular prediction framing of
// BB-ML (arXiv:2202.07798) and the hybrid analytical+ML design of Braun et
// al. (arXiv:2001.07104): a coarse analytic estimate, consumed downstream
// by the learned predictor, validated point-by-point against the exact
// simulators by dataset's differential oracle.
//
// # Model
//
// For each phase of each client we keep, at a given granularity (cache
// lines, shift 6; pages, shift 12):
//
//   - Refs: sampled references in the phase;
//   - Cold: first touches of a unit within the client's whole stream;
//   - Hist[b]: re-references whose own-stream time distance d (references
//     since the previous touch of the same unit) falls in bucket
//     [2^b, 2^(b+1)).
//
// Under the proportional (Bresenham) interleave, client i issues r_i of
// every R = sum r_j global references, so an own-stream distance d spans
// T = d*R/r_i global references. During T the shared LRU structure admits
// roughly T * U distinct units, where U = sum_j (Cold_j/Refs_j) * r_j / R
// is the global novelty rate. The re-reference hits iff the intervening
// distinct units fit in the capacity C:
//
//	hit  <=>  T*U <= C  <=>  d <= DeltaMax = C * r_i / (R * U)
//
// Isolated, the same client sees DeltaMaxIso = C / u_i with
// u_i = Cold_i/Refs_i. Evaluating the histogram against both thresholds
// yields model miss rates Mshared and Miso; the caller anchors the
// estimate to the memoized *exact* isolated miss rate m_iso:
//
//	m_shared ~= clamp(m_iso + (Mshared - Miso), 0, 1)
//
// so the closed form only has to predict the *delta* contention adds, not
// the absolute miss rate — the delta is where histogram-bucket
// quantization bias cancels.
//
// Shared TLBs additionally flush every FlushPeriod global references
// (MPS context interleaving): a re-reference at global distance T survives
// with probability max(0, 1 - T/FlushPeriod), folded per bucket.
//
// # Confidence
//
// Each estimate carries a self-reported confidence in [0,1]: the fraction
// of reuse mass that is *not* within one bucket (a factor of two) of the
// DeltaMax threshold. Mass at the threshold is exactly where LRU's sharp
// cutoff makes the closed form unstable. The fast tier reports the bag's
// combined confidence with every answer (RunKind.Conf): an answer under
// DefaultMinConfidence is outside the model's calibrated scope, but it
// still stands.
package phasesum

import (
	"math"
	"math/bits"
	"sync"
)

// Granularity shifts: units are addr >> shift.
const (
	LineShift = 6  // 64-byte cache lines (memsim.LineSize)
	PageShift = 12 // 4 KiB pages (memsim TLB granularity)
)

// NumBuckets bounds the log2 time-distance histogram. Sampled streams are
// capped at 24576 references per phase (memsim.SampleRefs), so per-workload
// streams stay well under 2^31 references; distances at or past the last
// bucket are clamped into it.
const NumBuckets = 32

// PhaseSum is one phase's reuse sketch at one granularity.
type PhaseSum struct {
	// Refs is the number of sampled references in the phase.
	Refs int
	// Cold counts first touches of a unit within the whole stream
	// (compulsory misses at this granularity).
	Cold int
	// Hist[b] counts re-references at own-stream time distance
	// d in [2^b, 2^(b+1)).
	Hist [NumBuckets]int
}

// Summary is one client's whole-stream sketch: per-phase reuse histograms
// at line and page granularity, plus the stream length the interleave
// model needs as the client's issue rate.
type Summary struct {
	Line []PhaseSum // per phase, addr >> LineShift
	Page []PhaseSum // per phase, addr >> PageShift
	// TotalRefs is the stream length (sum of Refs over phases); the
	// proportional interleave issues clients in ratio of their TotalRefs.
	TotalRefs int
}

// Bytes reports the summary's approximate resident size for memo-cache
// LRU accounting.
func (s *Summary) Bytes() int64 {
	per := int64(NumBuckets+2) * 8
	return int64(len(s.Line)+len(s.Page))*per + 64
}

// Summarize sketches a phase-contiguous address stream: addrs holds every
// phase's sampled references back to back and ends[p] is the first index
// past phase p (the representation both simulators already memoize).
// Distances are own-stream positions, measured across phase boundaries —
// exactly the stream the isolated replay would walk.
//
// The caller may reuse addrs as soon as Summarize returns: the summary
// holds no reference to it. With a warm pool the only allocation is the
// returned per-phase histograms; the last-touch table is pooled.
func Summarize(addrs []uint64, ends []int) Summary {
	n := len(ends)
	phases := make([]PhaseSum, 2*n)
	sum := Summary{
		Line:      phases[:n:n],
		Page:      phases[n:],
		TotalRefs: len(addrs),
	}
	t := touchPool.Get().(*lastTouch)
	sketch(t, addrs, ends, LineShift, sum.Line)
	sketch(t, addrs, ends, PageShift, sum.Page)
	touchPool.Put(t)
	return sum
}

// sketch fills one granularity's per-phase histograms.
func sketch(t *lastTouch, addrs []uint64, ends []int, shift uint, out []PhaseSum) {
	t.reset(len(addrs))
	start := 0
	for pi := range out {
		end := ends[pi]
		ps := &out[pi]
		ps.Refs = end - start
		for i := start; i < end; i++ {
			key := addrs[i]>>shift + 1
			s := t.find(key)
			if s.key == key {
				ps.Hist[bucketOf(i-s.pos)]++
				s.pos = i
				continue
			}
			*s = touch{key, i}
			ps.Cold++
			t.used++
			if 2*t.used > len(t.slots) {
				t.grow()
			}
		}
		start = end
	}
}

// bucketOf maps a positive distance to its log2 bucket, clamped to the
// final bucket.
func bucketOf(d int) int {
	b := bits.Len(uint(d)) - 1
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// lastTouch maps a unit to the stream position of its most recent touch:
// an open-addressed table with Fibonacci hashing and linear probing (the
// idiom of memsim's TLB index). Keys are stored biased by +1 so a stored 0
// means "empty"; units are addresses shifted right by at least LineShift,
// so the bias never overflows. Nothing is ever deleted.
//
// The table starts small and doubles as soon as an insert leaves it more
// than half full (sketch checks after each new unit), rehashing into the
// buffer the previous doubling vacated, or a new one when that is too
// small. Both buffers stay with the table in the pool, so a warm table
// grows without allocating. A real stream's distinct units are a small
// fraction of its references, so sizing for the worst case up front would
// clear and scatter over a table mostly empty. A stream whose distinct
// units are a large share of its references pays more for the doublings
// than the clear would have cost (DESIGN.md §11).
type lastTouch struct {
	slots []touch
	spare []touch // the other buffer, reused by the next doubling
	used  int     // occupied slots
	shift uint    // 64 - log2(len(slots))
}

// touch is one table slot; key and position share a cache line.
type touch struct {
	key uint64 // unit + 1; 0 = empty
	pos int
}

var touchPool = sync.Pool{New: func() any { return new(lastTouch) }}

// minTouchSlots is the starting table size for streams long enough to
// need it.
const minTouchSlots = 1 << 12

// reset empties the table and sizes it for a stream of n references: the
// smallest power of two holding n units at most half full, capped at
// minTouchSlots.
func (t *lastTouch) reset(n int) {
	size := 4
	for size < 2*n && size < minTouchSlots {
		size <<= 1
	}
	t.slots = t.take(t.slots, size)
	t.used = 0
}

// take returns buf resized to size empty slots, allocating only when its
// capacity is short, and points the hash shift at that size.
func (t *lastTouch) take(buf []touch, size int) []touch {
	if cap(buf) < size {
		buf = make([]touch, size)
	} else {
		buf = buf[:size]
		clear(buf)
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	return buf
}

// find returns key's slot, or the empty slot where it belongs.
func (t *lastTouch) find(key uint64) *touch {
	mask := uint64(len(t.slots) - 1)
	for i := (key * 0x9E3779B97F4A7C15) >> t.shift; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.key == key || s.key == 0 {
			return s
		}
	}
}

// grow doubles the table, rehashing every entry into the spare buffer.
func (t *lastTouch) grow() {
	old := t.slots
	t.slots = t.take(t.spare, 2*len(old))
	for _, s := range old {
		if s.key != 0 {
			*t.find(s.key) = s
		}
	}
	t.spare = old
}

// noveltyRate returns the client's distinct-unit rate Cold/Refs over the
// whole stream at the given granularity (0 for an empty stream).
func noveltyRate(phases []PhaseSum) float64 {
	var cold, refs int
	for i := range phases {
		cold += phases[i].Cold
		refs += phases[i].Refs
	}
	if refs == 0 {
		return 0
	}
	return float64(cold) / float64(refs)
}

// SharedConfig parameterizes one shared structure for the contention model.
type SharedConfig struct {
	// Capacity is the structure's size in units (lines for a cache,
	// entries for a TLB).
	Capacity float64
	// FlushPeriod > 0 flushes the structure every FlushPeriod *global*
	// references (the GPU TLB under MPS interleaving); 0 disables it.
	FlushPeriod float64
}

// Estimate is one phase's analytic miss estimate.
type Estimate struct {
	// Miss is the modelled miss fraction per sampled reference.
	Miss float64
	// Confidence in [0,1] reports how far the phase's reuse mass sits
	// from the capacity threshold (1 = all mass far from the cutoff).
	Confidence float64
}

// client precomputes one co-runner's interleave parameters.
type client struct {
	phases []PhaseSum
	rate   float64 // r_i: own share of the global reference stream
	u      float64 // novelty rate Cold/Refs
}

// SharedMiss estimates, for every client and phase, the miss rate of the
// shared structure under the proportional interleave of all clients'
// streams. all[i] selects each client's per-phase sketch at the modelled
// granularity (Summary.Line or Summary.Page); rates[i] is the client's
// stream length (Summary.TotalRefs). The i-th inner slice is indexed like
// all[i].
//
// The isolated special case (len(all) == 1, no flushing) degenerates to
// the classic single-stream working-set model; callers use it as the
// model-side anchor for delta correction (see the package comment).
func SharedMiss(all [][]PhaseSum, rates []int, cfg SharedConfig) [][]Estimate {
	n := len(all)
	clients := make([]client, n)
	var total float64
	for i := range all {
		clients[i] = client{phases: all[i], rate: float64(rates[i]), u: noveltyRate(all[i])}
		total += float64(rates[i])
	}
	if total == 0 {
		out := make([][]Estimate, n)
		for i := range out {
			out[i] = make([]Estimate, len(all[i]))
		}
		return out
	}
	// Global novelty rate U: distinct units admitted per global reference.
	var U float64
	for i := range clients {
		U += clients[i].u * clients[i].rate / total
	}

	out := make([][]Estimate, n)
	for i := range clients {
		c := &clients[i]
		out[i] = make([]Estimate, len(c.phases))
		// DeltaMax: own-stream distance below which a re-reference still
		// fits in the shared capacity (see package comment). With zero
		// novelty anywhere (pure re-reference streams) nothing is ever
		// evicted and every reuse hits.
		deltaMax := math.Inf(1)
		if U > 0 && c.rate > 0 {
			deltaMax = cfg.Capacity * c.rate / (total * U)
		}
		// Flush survival operates on global distance T = d*total/rate.
		globalScale := 0.0
		if c.rate > 0 {
			globalScale = total / c.rate
		}
		for pi := range c.phases {
			out[i][pi] = estimatePhase(&c.phases[pi], deltaMax, globalScale, cfg.FlushPeriod)
		}
	}
	return out
}

// estimatePhase evaluates one phase's histogram against the capacity
// threshold and the optional flush window.
func estimatePhase(ps *PhaseSum, deltaMax, globalScale, flushPeriod float64) Estimate {
	if ps.Refs == 0 {
		return Estimate{Miss: 0, Confidence: 1}
	}
	missed := float64(ps.Cold)
	var reuse, boundary float64
	for b := 0; b < NumBuckets; b++ {
		cnt := float64(ps.Hist[b])
		if cnt == 0 {
			continue
		}
		reuse += cnt
		// Bucket representative: geometric midpoint of [2^b, 2^(b+1)).
		d := float64(uint64(1)<<uint(b)) * math.Sqrt2
		hit := 1.0
		if d > deltaMax {
			hit = 0
		}
		// Mass within a factor of two of the cutoff is where the sharp
		// LRU threshold makes the estimate unstable.
		if d > deltaMax/2 && d < deltaMax*2 {
			boundary += cnt
		}
		if hit > 0 && flushPeriod > 0 {
			surv := 1 - d*globalScale/flushPeriod
			if surv < 0 {
				surv = 0
			}
			hit = surv
		}
		missed += cnt * (1 - hit)
	}
	conf := 1.0
	if reuse > 0 {
		conf = 1 - boundary/reuse
	}
	return Estimate{Miss: missed / float64(ps.Refs), Confidence: conf}
}

// Clamp01 clamps v into [0, 1] — the delta-corrected miss estimate's
// domain.
func Clamp01(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}

// CombineConfidence combines per-phase confidences into a run-level figure:
// the reference-weighted mean, floored by the single worst phase weighted
// at half. Heavy phases dominate the run's accuracy, but one badly
// threshold-straddling phase should still be able to pull the run down.
func CombineConfidence(all [][]Estimate, phases [][]PhaseSum) float64 {
	var wsum, csum float64
	worst := 1.0
	for i := range all {
		for pi := range all[i] {
			w := float64(phases[i][pi].Refs)
			if w == 0 {
				continue
			}
			c := all[i][pi].Confidence
			wsum += w
			csum += w * c
			if c < worst {
				worst = c
			}
		}
	}
	if wsum == 0 {
		return 1
	}
	mean := csum / wsum
	floor := (1 + worst) / 2
	if floor < mean {
		return floor
	}
	return mean
}
