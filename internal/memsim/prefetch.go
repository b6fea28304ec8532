package memsim

// StridePrefetcher is a classic confidence-based stride prefetcher: it
// observes a demand-miss address stream at line granularity, and once two
// consecutive misses exhibit the same stride it emits prefetch candidates
// for the next lines along that stride. The CPU simulator can attach one
// per application in front of its private L2 (Config.PrefetchDegree).
type StridePrefetcher struct {
	degree     int
	lastLine   uint64
	lastStride int64
	confident  bool
	seen       bool
	issued     uint64
}

// NewStridePrefetcher returns a prefetcher issuing up to degree lines per
// confident miss. A degree of 0 disables it (OnMiss returns nil).
func NewStridePrefetcher(degree int) *StridePrefetcher {
	if degree < 0 {
		degree = 0
	}
	return &StridePrefetcher{degree: degree}
}

// OnMiss trains on a demand miss at addr and returns the addresses to
// prefetch (line-aligned), if any.
func (p *StridePrefetcher) OnMiss(addr uint64) []uint64 {
	if p.degree == 0 {
		return nil
	}
	line := addr / LineSize
	defer func() { p.lastLine = line; p.seen = true }()
	if !p.seen {
		return nil
	}
	stride := int64(line) - int64(p.lastLine)
	if stride == 0 {
		return nil
	}
	if stride == p.lastStride {
		if !p.confident {
			p.confident = true
		}
	} else {
		p.lastStride = stride
		p.confident = false
		return nil
	}
	out := make([]uint64, 0, p.degree)
	next := int64(line)
	for i := 0; i < p.degree; i++ {
		next += stride
		if next <= 0 {
			break
		}
		out = append(out, uint64(next)*LineSize)
	}
	p.issued += uint64(len(out))
	return out
}
