package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"mapc/internal/phasesum"
)

// The golden corpus-hash tests pin the *byte-exact* output of corpus
// generation. The hashes below were recorded from the pre-optimization
// memory-hierarchy simulator (linear-scan TLB, per-access tag-shift cache,
// append-grown interleaving); the rebuilt O(1) hot path must reproduce them
// bit for bit. If a deliberate modeling change ever alters simulation
// semantics, re-record the constants with `go test ./internal/dataset -run
// TestCorpusGoldenHash -v` (the failure message prints the new hash) and
// say so in the commit message — these constants changing is the loudest
// signal the simulator's outputs moved.
const (
	// goldenSmallCorpusHash covers 3 benchmarks x 3 batches with
	// heterogeneous and mixed-batch pairs (the smallConfig used by the
	// worker-invariance goldens).
	goldenSmallCorpusHash = "167da8cf8563b96c2339e180b72fa94bf65201cb0e0e66f8d80bcfa4be0df7a9"
	// goldenPrefetchCorpusHash additionally enables the CPU-side stride
	// prefetcher (PrefetchDegree=2), pinning the Cache.Install path.
	goldenPrefetchCorpusHash = "b36df8bb7c2f0aee3d53731f90903948d5fadcfb7dd81cd8ce4e4edc70678636"
	// goldenFullCorpusHash is the complete 91-point Section V-B corpus
	// (all nine benchmarks, five batch sizes, 10 mixed pairs).
	goldenFullCorpusHash = "7d3d4de57a0939f2b372085f135ea36aa5b2caff391404b059bc3ffcc8b06d4c"
)

// hashCorpus serializes every numeric field of the corpus with full float64
// round-trip precision and returns the SHA-256 of the result. Any change to
// a hit/miss outcome, a victim choice, an RNG draw, or an accumulation
// order anywhere in the simulators changes this hash.
func hashCorpus(c *Corpus) string {
	var sb strings.Builder
	f := func(v float64) {
		sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		sb.WriteByte(',')
	}
	fmt.Fprintf(&sb, "names=%s;", strings.Join(c.FeatureNames, ","))
	f(c.CPUTimeDivisor)
	for i := range c.Points {
		p := &c.Points[i]
		fmt.Fprintf(&sb, ";%s/%d+%s/%d:%t:",
			p.Members[0].Benchmark, p.Members[0].Batch,
			p.Members[1].Benchmark, p.Members[1].Batch, p.Homogeneous)
		for _, v := range p.X {
			f(v)
		}
		f(p.Y)
		f(p.Fairness)
		f(p.CPUTimes[0])
		f(p.CPUTimes[1])
		f(p.GPUTimes[0])
		f(p.GPUTimes[1])
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:])
}

func checkCorpusHash(t *testing.T, cfg Config, want, label string) {
	t.Helper()
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if got := hashCorpus(c); got != want {
		t.Errorf("%s corpus hash = %s, want %s\n"+
			"simulation outputs changed — if this is a deliberate modeling change, "+
			"re-record the golden constant; if not, the memory-hierarchy fast path "+
			"broke bit-identity", label, got, want)
	}
}

// TestCorpusGoldenHashSmall pins the reduced corpus (fast to regenerate;
// run on every `go test`).
func TestCorpusGoldenHashSmall(t *testing.T) {
	checkCorpusHash(t, smallConfig(), goldenSmallCorpusHash, "small")
}

// TestCorpusGoldenHashPrefetch pins the corpus with the stride prefetcher
// enabled, covering Cache.Install's victim selection.
func TestCorpusGoldenHashPrefetch(t *testing.T) {
	cfg := smallConfig()
	cfg.CPU.PrefetchDegree = 2
	checkCorpusHash(t, cfg, goldenPrefetchCorpusHash, "prefetch")
}

// TestCorpusGoldenHashFull pins the complete 91-point paper corpus. Skipped
// under -short; CI runs it.
func TestCorpusGoldenHashFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full 91-point corpus generation; run without -short")
	}
	checkCorpusHash(t, DefaultConfig(), goldenFullCorpusHash, "full")
}

// Fast-tier golden hashes: smallConfig at Fidelity=Fast, recorded before
// the phasesum sketch moved from a Go map to an open-addressed last-touch
// table and before gpusim stopped memoizing the streams it only sketches.
// Both changes are pure speed work; these constants pin that the analytic
// tier's outputs did not move by one bit.
const (
	goldenFastPairCorpusHash = "998b448b82544ddd98e5114a5b56fd2ad90d48faa4267c61a031a0df1cba813a"
	goldenFastK4CorpusHash   = "73bcbc0f3f2798de1cd42d7b767221d0b56151c4511f6f975993fc2ee90d76ba"
)

// TestCorpusGoldenHashFastPair pins the pair corpus at the fast tier.
func TestCorpusGoldenHashFastPair(t *testing.T) {
	cfg := smallConfig()
	cfg.Fidelity = phasesum.Fast
	checkCorpusHash(t, cfg, goldenFastPairCorpusHash, "fast pair")
}

// TestCorpusGoldenHashFastK4 pins the k=4 corpus at the fast tier.
func TestCorpusGoldenHashFastK4(t *testing.T) {
	cfg := kConfig(4)
	cfg.Fidelity = phasesum.Fast
	gen, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if got := hashCorpusK(c); got != goldenFastK4CorpusHash {
		t.Errorf("fast k=4 corpus hash = %s, want %s\n"+
			"the analytic tier's outputs changed — the phasesum sketch or the "+
			"gpusim summary path broke bit-identity", got, goldenFastK4CorpusHash)
	}
}
