package memsim

import (
	"fmt"
	"hash/fnv"
	"math"

	"mapc/internal/trace"
	"mapc/internal/xrand"
)

// Stream generates a deterministic synthetic address stream realizing a
// phase's access descriptor (pattern, footprint, stride, reuse). The CPU
// and GPU simulators sample a bounded number of references per phase
// through the cache/TLB models and extrapolate the resulting miss ratios to
// the phase's full reference count — the standard sampled-simulation
// technique.
//
// Every reference draws a reuse coin; a reuse re-touches one of the 16
// most recently generated addresses, anything else advances the pattern
// and replaces a random entry of that ring. The generator is division-free
// on its hot path: the coin is an integer compare, ring and window indices
// are masks, and the cursor's offset into the footprint advances by a
// conditional subtract. Each rewrite equals the modulo or float compare it
// replaces for every draw (see DESIGN.md, "Stream kernels").
type Stream struct {
	rng       xrand.Rand
	base      uint64
	footprint uint64
	pattern   trace.Pattern
	// cursor is the byte cursor, advanced by adv per generated reference
	// and wrapping at 2^64; off is cursor % footprint, kept incrementally
	// by adding step = adv % footprint.
	cursor uint64
	adv    uint64
	off    uint64
	step   uint64
	// reuseT is ceil(reuse * 2^53): a reference re-touches iff its draw's
	// top 53 bits are below it, which is exactly Float64() < reuse.
	reuseT  uint64
	recent  [recentSize]uint64
	recentN int
}

const (
	// recentSize is the reuse ring's length, a power of two so a full
	// ring's index draw Intn(recentSize) is a mask.
	recentSize = 16
	// window is the sliding-window extent for Windowed phases, a power of
	// two so the in-window offset draw Intn(window) is a mask.
	window = 4096
)

// NewStream builds a stream for phase p. base separates the address spaces
// of different applications (and of different phases' heaps); seed makes the
// stochastic components reproducible.
func NewStream(p *trace.Phase, base uint64, seed uint64) (*Stream, error) {
	if p == nil {
		return nil, fmt.Errorf("memsim: nil phase")
	}
	if p.Footprint < 0 {
		return nil, fmt.Errorf("memsim: phase %q has negative footprint", p.Name)
	}
	fp := uint64(p.Footprint)
	if fp < LineSize {
		fp = LineSize
	}
	adv := uint64(8)
	if p.Pattern == trace.Strided && p.StrideBytes != 0 {
		adv = uint64(p.StrideBytes)
	}
	return &Stream{
		rng:       *xrand.New(seed),
		base:      base,
		footprint: fp,
		pattern:   p.Pattern,
		adv:       adv,
		step:      adv % fp,
		reuseT:    reuseThreshold(p.Reuse),
	}, nil
}

// reuseThreshold returns the integer t with x>>11 < t exactly when
// float64(x>>11)/2^53 < r, for every 64-bit draw x. Scaling by 2^53 is
// exact, so the compare is k < r*2^53 for the integer k = x>>11, which
// holds iff k < ceil(r*2^53). A NaN or non-positive r never re-touches; an
// r of 1 or more always does.
func reuseThreshold(r float64) uint64 {
	switch {
	case !(r > 0):
		return 0
	case r >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(r * (1 << 53)))
}

// StreamSeed derives a reproducible stream seed from identifying strings.
func StreamSeed(parts ...string) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// Next returns the next reference address.
func (s *Stream) Next() uint64 {
	// Temporal-reuse short-circuit: re-touch a recently used address.
	if s.recentN > 0 && s.reuses() {
		return s.recent[s.slot()]
	}
	var addr uint64
	switch s.pattern {
	case trace.Sequential, trace.Strided:
		addr = s.base + s.off
		s.advance()
	case trace.Windowed:
		// The window's origin advances sequentially; accesses scatter
		// within it, capturing sliding-filter locality.
		addr = s.base + s.windowed(s.rng.Uint64()&(window-1))
		s.advance()
	default: // trace.Random
		addr = s.base + s.rng.Uint64()%s.footprint
	}
	if s.recentN < recentSize {
		s.recent[s.recentN] = addr
		s.recentN++
	} else {
		s.recent[s.rng.Uint64()&(recentSize-1)] = addr
	}
	return addr
}

// Fill writes the next len(dst) references into dst, in exactly the order
// repeated Next calls would return them. The simulators batch their
// per-phase sampling through one preallocated buffer instead of calling
// Next in the interleave loops, keeping the hot path call- and
// allocation-free.
//
// Fill hands the warm-up — the references before the reuse ring holds
// recentSize addresses, whose index draws need a true modulo — to Next,
// then runs one loop per pattern with the ring full: each ring index is
// a mask, and the reuse coin needs no check that the ring is non-empty.
// The separate loops keep the pattern switch off the per-reference path,
// which measured faster than one loop with the switch inside (DESIGN.md,
// "Stream kernels").
func (s *Stream) Fill(dst []uint64) {
	i := 0
	for ; i < len(dst) && s.recentN < recentSize; i++ {
		dst[i] = s.Next()
	}
	dst = dst[i:]
	switch s.pattern {
	case trace.Sequential, trace.Strided:
		for i := range dst {
			if s.reuses() {
				dst[i] = s.recent[s.rng.Uint64()&(recentSize-1)]
				continue
			}
			addr := s.base + s.off
			s.advance()
			s.recent[s.rng.Uint64()&(recentSize-1)] = addr
			dst[i] = addr
		}
	case trace.Windowed:
		for i := range dst {
			if s.reuses() {
				dst[i] = s.recent[s.rng.Uint64()&(recentSize-1)]
				continue
			}
			addr := s.base + s.windowed(s.rng.Uint64()&(window-1))
			s.advance()
			s.recent[s.rng.Uint64()&(recentSize-1)] = addr
			dst[i] = addr
		}
	default: // trace.Random
		for i := range dst {
			if s.reuses() {
				dst[i] = s.recent[s.rng.Uint64()&(recentSize-1)]
				continue
			}
			addr := s.base + s.rng.Uint64()%s.footprint
			s.recent[s.rng.Uint64()&(recentSize-1)] = addr
			dst[i] = addr
		}
	}
}

// reuses draws the temporal-reuse coin.
func (s *Stream) reuses() bool { return s.rng.Uint64()>>11 < s.reuseT }

// slot draws an index into the reuse ring, Intn(recentN): a true modulo
// during warm-up, a mask once the ring is full.
func (s *Stream) slot() uint64 {
	x := s.rng.Uint64()
	if s.recentN == recentSize {
		return x & (recentSize - 1)
	}
	return x % uint64(s.recentN)
}

// advance moves the cursor one reference on. off stays cursor % footprint:
// off and step are both below the footprint, so one conditional subtract
// reduces their sum, and a cursor that wraps 2^64 re-derives off with a
// true modulo (2^64 is not a multiple of every footprint).
func (s *Stream) advance() {
	s.off += s.step
	if s.off >= s.footprint {
		s.off -= s.footprint
	}
	s.cursor += s.adv
	if s.cursor < s.adv {
		s.off = s.cursor % s.footprint
	}
}

// windowed returns (off + o) % footprint for an in-window offset
// o < window. With a footprint of at least window bytes the sum is below
// twice the footprint, so one subtract reduces it; the inner modulo only
// runs for footprints smaller than the window.
func (s *Stream) windowed(o uint64) uint64 {
	a := s.off + o
	if a >= s.footprint {
		a -= s.footprint
		if a >= s.footprint {
			a %= s.footprint
		}
	}
	return a
}

// SampleRefs chooses how many references to simulate for a phase with the
// given total reference count: enough to warm the structures and resolve
// the miss ratio, capped to keep dataset generation fast.
func SampleRefs(total uint64) int {
	const cap = 24576
	if total < cap {
		return int(total)
	}
	return cap
}
