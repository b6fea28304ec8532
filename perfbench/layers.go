package main

// layers.go is the benchmark's single point of contact with the program:
// every call into mapc/internal lives in this file, so an API change in the
// program has exactly one place to update here. The rest of the benchmark
// sees plain Go values and http.Handlers.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"mapc/internal/cluster"
	"mapc/internal/core"
	"mapc/internal/cpusim"
	"mapc/internal/dataset"
	"mapc/internal/features"
	"mapc/internal/gpusim"
	"mapc/internal/mica"
	"mapc/internal/perfmon"
	"mapc/internal/phasesum"
	"mapc/internal/serve"
	"mapc/internal/simcache"
	"mapc/internal/trace"
	"mapc/internal/vision"
)

// paperSeed is the image seed of the paper's corpus (dataset.DefaultConfig).
// The accuracy metrics and the served model always use it; see README.md.
const paperSeed = 42

// oracleFrac is the share of bags the fast-tier oracle re-measures exactly.
const oracleFrac = 0.1

// member is one application instance of a bag: a benchmark at a batch size.
type member struct {
	Benchmark string `json:"benchmark"`
	Batch     int    `json:"batch"`
}

func (m member) dataset() dataset.Member {
	return dataset.Member{Benchmark: m.Benchmark, Batch: m.Batch}
}

// corpusSpec selects a corpus: bag size, co-run tier, image seed and the
// generator's worker count.
type corpusSpec struct {
	k       int
	fast    bool
	seed    uint64
	workers int
}

func (s corpusSpec) config() dataset.Config {
	cfg := dataset.DefaultConfig()
	cfg.K = s.k
	cfg.Seed = s.seed
	cfg.Workers = s.workers
	if s.fast {
		cfg.Fidelity = phasesum.Fast
	}
	return cfg
}

// passOut is one generated corpus and the counters of the generator that
// produced it.
type passOut struct {
	corpus    *dataset.Corpus
	digest    [32]byte
	sim       simcache.Stats
	analytic  uint64
	fallbacks uint64
}

// runPass generates the corpus with a fresh dataset.Generator, the way
// mapc-datagen does.
func runPass(s corpusSpec) (passOut, error) {
	g, err := dataset.NewGenerator(s.config())
	if err != nil {
		return passOut{}, err
	}
	c, err := g.Generate()
	if err != nil {
		return passOut{}, err
	}
	fs := g.FidelityStats()
	return passOut{corpus: c, digest: corpusDigest(c), sim: g.SimCacheStats(),
		analytic: fs.AnalyticRuns, fallbacks: fs.ExactFallbacks}, nil
}

// corpusDigest hashes every value a corpus carries, bit for bit.
func corpusDigest(c *dataset.Corpus) [32]byte {
	h := sha256.New()
	var b [8]byte
	f := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, p := range c.Points {
		for _, m := range p.Members {
			fmt.Fprintf(h, "%s/%d;", m.Benchmark, m.Batch)
		}
		fmt.Fprintf(h, "%t;", p.Homogeneous)
		for _, v := range p.X {
			f(v)
		}
		f(p.Y)
		f(p.Fairness)
		for i := range p.CPUTimes {
			f(p.CPUTimes[i])
			f(p.GPUTimes[i])
		}
	}
	f(c.CPUTimeDivisor)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// loocv returns the paper's Figure-4 metric for the corpus: the mean
// leave-one-benchmark-out relative error (%) of the full-scheme tree under
// HoldOutOwn, and how long it took.
func loocv(c *dataset.Corpus) (pct float64, took time.Duration, err error) {
	t0 := time.Now()
	res, err := core.LOOCV(c, core.SchemeFull, core.DefaultTreeParams(), core.HoldOutOwn)
	if err != nil {
		return 0, 0, err
	}
	return core.MeanLOOCVError(res), time.Since(t0), nil
}

// oracleErrPct re-measures a seeded share of the fast-tier corpus of bag
// size k exactly (Generator.RunOracle) and returns the maximum relative GPU
// bag-time error in percent.
func oracleErrPct(k, workers int) (float64, error) {
	g, err := dataset.NewGenerator(corpusSpec{k: k, fast: true, seed: paperSeed, workers: workers}.config())
	if err != nil {
		return 0, err
	}
	rep, err := g.RunOracle(oracleFrac, paperSeed)
	if err != nil {
		return 0, err
	}
	return rep.MaxRelErrGPU * 100, nil
}

// corpusMembers lists the corpus's (benchmark, batch) members.
func corpusMembers() []member {
	cfg := dataset.DefaultConfig()
	var out []member
	for _, n := range cfg.BenchmarkNames() {
		for _, b := range cfg.BatchSizes {
			out = append(out, member{n, b})
		}
	}
	return out
}

// benchmarkNames lists the Table-II benchmarks.
func benchmarkNames() []string { return vision.Names() }

// isCorpusBatch reports whether b is one of the corpus's batch sizes.
func isCorpusBatch(b int) bool {
	for _, v := range dataset.DefaultBatchSizes {
		if v == b {
			return true
		}
	}
	return false
}

// pipeline composes one generator's work from the layers' public entry
// points, serially, with a span around every call. It is the traced twin of
// dataset.Generator: its corpus must be bit-identical to Generate's.
type pipeline struct {
	cfg     dataset.Config
	memo    *simcache.Cache
	tr      *tracer
	members map[dataset.Member]*measured
	kinds   struct{ analytic, fallbacks uint64 }
}

// measured is one member's instrumented run and isolated simulations.
type measured struct {
	m   dataset.Member
	w   *trace.Workload
	mix mica.Mix
	cpu cpusim.Result
	gpu gpusim.Result
}

func newPipeline(s corpusSpec, tr *tracer) *pipeline {
	cfg := s.config()
	p := &pipeline{cfg: cfg, tr: tr, members: map[dataset.Member]*measured{}}
	if cfg.SimCacheMB > 0 {
		p.memo = simcache.MustNew(int64(cfg.SimCacheMB) << 20)
	}
	return p
}

// measure runs member m's benchmark and isolated simulations once.
func (p *pipeline) measure(m dataset.Member, parent int64) (*measured, error) {
	if mm, ok := p.members[m]; ok {
		return mm, nil
	}
	b, err := vision.ByName(m.Benchmark)
	if err != nil {
		return nil, err
	}
	sp := p.tr.begin("vision.run", parent)
	res, err := vision.Run(b, m.Batch, p.cfg.Seed)
	sp.end()
	if err != nil {
		return nil, err
	}
	mm := &measured{m: m, w: res.Workload}
	sp = p.tr.begin("mica.analyze", parent)
	mm.mix, err = mica.Analyze(res.Workload)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = p.tr.begin("cpusim.iso", parent)
	cpu, err := cpusim.RunMemo(p.cfg.CPU, p.memo, []cpusim.App{{Workload: res.Workload, Threads: p.cfg.Threads}})
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = p.tr.begin("gpusim.iso", parent)
	gpu, err := gpusim.RunMemo(p.cfg.GPU, p.memo, []*trace.Workload{res.Workload})
	sp.end()
	if err != nil {
		return nil, err
	}
	mm.cpu, mm.gpu = cpu[0], gpu[0]
	p.members[m] = mm
	return mm, nil
}

// canonical measures the bag's members and orders them heavier-first by
// isolated CPU time, the generator's canonical bag order.
func (p *pipeline) canonical(bag []dataset.Member, parent int64) ([]*measured, error) {
	ms := make([]*measured, len(bag))
	for i, m := range bag {
		mm, err := p.measure(m, parent)
		if err != nil {
			return nil, fmt.Errorf("%v: %w", m, err)
		}
		ms[i] = mm
	}
	sort.SliceStable(ms, func(i, j int) bool {
		a, b := ms[i], ms[j]
		if a.cpu.TimeSec != b.cpu.TimeSec {
			return a.cpu.TimeSec > b.cpu.TimeSec
		}
		if a.m.Benchmark != b.m.Benchmark {
			return a.m.Benchmark < b.m.Benchmark
		}
		return a.m.Batch < b.m.Batch
	})
	return ms, nil
}

func (p *pipeline) count(kind phasesum.RunKind) {
	switch {
	case !kind.UsedExact:
		p.kinds.analytic++
	case p.cfg.Fidelity.Analytic():
		p.kinds.fallbacks++
	}
}

// featureVector runs the shared CPU co-run and reduces it to the bag's
// fairness and raw feature vector.
func (p *pipeline) featureVector(ms []*measured, parent int64) ([]float64, float64, error) {
	apps := make([]cpusim.App, len(ms))
	for i, mm := range ms {
		apps[i] = cpusim.App{Workload: mm.w, Threads: p.cfg.Threads}
	}
	sp := p.tr.begin("cpusim.corun", parent)
	shared, kind, err := cpusim.RunMemoFidelity(p.cfg.CPU, p.memo, apps, p.cfg.Fidelity)
	sp.end()
	if err != nil {
		return nil, 0, err
	}
	p.count(kind)
	sp = p.tr.begin("features.vector", parent)
	defer sp.end()
	perf := make([]perfmon.AppPerf, len(ms))
	fa := make([]features.App, len(ms))
	for i, mm := range ms {
		perf[i] = perfmon.AppPerf{IPCAlone: mm.cpu.IPC, IPCShared: shared[i].IPC}
		fa[i] = features.App{CPUTimeSec: mm.cpu.TimeSec, GPUTimeSec: mm.gpu.TimeSec, Mix: mm.mix}
	}
	fairness, err := perfmon.Fairness(perf)
	if err != nil {
		return nil, 0, err
	}
	fairness = math.Min(fairness, 1)
	x, err := features.BagVector(fa, fairness)
	return x, fairness, err
}

// point measures one corpus data point.
func (p *pipeline) point(bag []dataset.Member, parent int64) (dataset.Point, error) {
	ms, err := p.canonical(bag, parent)
	if err != nil {
		return dataset.Point{}, err
	}
	x, fairness, err := p.featureVector(ms, parent)
	if err != nil {
		return dataset.Point{}, err
	}
	ws := make([]*trace.Workload, len(ms))
	for i, mm := range ms {
		ws[i] = mm.w
	}
	sp := p.tr.begin("gpusim.corun", parent)
	shared, kind, err := gpusim.RunMemoSharesFidelity(p.cfg.GPU, p.memo, ws, p.cfg.Shares, p.cfg.Fidelity)
	sp.end()
	if err != nil {
		return dataset.Point{}, err
	}
	p.count(kind)
	pt := dataset.Point{X: x, Y: gpusim.BagTime(shared), Fairness: fairness, Homogeneous: true}
	for _, mm := range ms {
		pt.Members = append(pt.Members, mm.m)
		pt.CPUTimes = append(pt.CPUTimes, mm.cpu.TimeSec)
		pt.GPUTimes = append(pt.GPUTimes, mm.gpu.TimeSec)
		pt.Homogeneous = pt.Homogeneous && mm.m == ms[0].m
	}
	return pt, nil
}

// composePass builds the whole corpus serially through the pipeline, one
// "corpus.bag" span per point under a root "corpus.pass" span.
func composePass(s corpusSpec, tr *tracer) (passOut, error) {
	p := newPipeline(s, tr)
	g, err := dataset.NewGenerator(p.cfg)
	if err != nil {
		return passOut{}, err
	}
	bags, err := g.Bags()
	if err != nil {
		return passOut{}, err
	}
	root := tr.begin("corpus.pass", -1)
	c := &dataset.Corpus{Points: make([]dataset.Point, len(bags))}
	for i, bag := range bags {
		sp := tr.begin("corpus.bag", root.id)
		c.Points[i], err = p.point(bag, sp.id)
		sp.end()
		if err != nil {
			return passOut{}, err
		}
	}
	if c.FeatureNames, err = features.Names(p.cfg.EffectiveK()); err != nil {
		return passOut{}, err
	}
	// Dataset shares its rows with Points, so this normalizes them in place.
	if c.CPUTimeDivisor, err = features.NormalizeTimes(c.Dataset()); err != nil {
		return passOut{}, err
	}
	root.end()
	return passOut{corpus: c, digest: corpusDigest(c), sim: p.memo.Stats(),
		analytic: p.kinds.analytic, fallbacks: p.kinds.fallbacks}, nil
}

// model is the served predictor, trained once on the paper's pair corpus.
type model struct {
	p      *core.Predictor
	gen    *dataset.Generator // the training generator: the offline oracle
	trainS float64
	loocvS float64
	loocv  float64
}

// generator measures bags: a replica's, the training one, or a fresh one.
type generator = dataset.Generator

// servingSpec is the pair corpus at exact fidelity, the mapc-serve default.
func servingSpec(workers int) corpusSpec {
	return corpusSpec{k: 2, seed: paperSeed, workers: workers}
}

// trainModel generates the paper corpus, trains the full-scheme tree on it
// and evaluates it by LOOCV.
func trainModel(workers int) (*model, error) {
	g, err := dataset.NewGenerator(servingSpec(workers).config())
	if err != nil {
		return nil, err
	}
	c, err := g.Generate()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	p, err := core.Train(c, core.SchemeFull, core.DefaultTreeParams())
	if err != nil {
		return nil, err
	}
	m := &model{p: p, gen: g, trainS: time.Since(t0).Seconds()}
	pct, took, err := loocv(c)
	if err != nil {
		return nil, err
	}
	m.loocv, m.loocvS = pct, took.Seconds()
	return m, nil
}

// features measures a bag's raw feature vector with BagFeatures on gen, or
// on the training generator when gen is nil.
func (m *model) features(gen *generator, bag []member) ([]float64, error) {
	if gen == nil {
		gen = m.gen
	}
	ds := make([]dataset.Member, len(bag))
	for i, b := range bag {
		ds[i] = b.dataset()
	}
	x, _, err := gen.BagFeatures(ds)
	return x, err
}

// predict is the model's answer for a raw feature vector.
func (m *model) predict(x []float64) (float64, error) { return m.p.PredictRaw(x) }

// dropTrainingGenerator releases the training generator and its memo once
// the offline answers are known, as a replica loading -model never had it.
func (m *model) dropTrainingGenerator() { m.gen = nil }

// replay answers one bag serially through the pipeline, the traced split of
// serve's cold path: member measurement, co-run and features, then predict.
func (p *pipeline) replay(m *model, bag []member, parent int64) (float64, error) {
	ds := make([]dataset.Member, len(bag))
	for i, b := range bag {
		ds[i] = b.dataset()
	}
	ms, err := p.canonical(ds, parent)
	if err != nil {
		return 0, err
	}
	x, _, err := p.featureVector(ms, parent)
	if err != nil {
		return 0, err
	}
	sp := p.tr.begin("core.predict", parent)
	defer sp.end()
	return m.p.PredictRaw(x)
}

// replica is one in-process serve instance with its own generator, as a
// separate mapc-serve process loaded with -model would have.
type replica struct {
	handler http.Handler
	gen     *dataset.Generator
}

// newServingGenerator is a generator configured as a replica's, with
// nothing measured yet.
func newServingGenerator(workers int) (*generator, error) {
	return dataset.NewGenerator(servingSpec(workers).config())
}

func newReplica(m *model, workers int) (*replica, error) {
	g, err := newServingGenerator(workers)
	if err != nil {
		return nil, err
	}
	s, err := serve.New(serve.Config{
		Model:             m.p,
		Generator:         g,
		Workers:           workers,
		BrownoutWatermark: serve.DefaultBrownoutWatermark,
	})
	if err != nil {
		return nil, err
	}
	return &replica{handler: s.Handler(), gen: g}, nil
}

// newRouter builds the consistent-hash router over the replica URLs. The
// pool is not probed: every replica stays healthy unless a forward fails.
func newRouter(urls []string, transport http.RoundTripper) (http.Handler, error) {
	pool, err := cluster.NewPool(cluster.PoolConfig{Replicas: urls})
	if err != nil {
		return nil, err
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Pool: pool, Client: &http.Client{Transport: transport}})
	if err != nil {
		return nil, err
	}
	return rt.Handler(), nil
}
