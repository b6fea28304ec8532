package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// maxOracleErrPct is the CI oracle gate: the fast tier's GPU bag-time error
// against exact simulation may not exceed 5%.
const maxOracleErrPct = 5

// corpusLayers are the leaf spans of one composed corpus pass.
var corpusLayers = []string{
	"vision.run", "mica.analyze", "cpusim.iso", "gpusim.iso",
	"cpusim.corun", "features.vector", "gpusim.corun",
}

// corpusExact is the paper's 91-bag pair corpus at exact fidelity: exact
// co-run replay does most of the work.
func corpusExact(r *run) error {
	return corpusWorkload(r, corpusSpec{k: 2, workers: r.workers}, 3)
}

// corpusK4Fast is the 181 k=4 bags at the fast tier: the phasesum analytic
// co-runs and the simulation memo do the work.
func corpusK4Fast(r *run) error {
	// One warm-up pass: at ~6 s a pass, a second would make this the
	// longest workload by far.
	return corpusWorkload(r, corpusSpec{k: 4, fast: true, workers: r.workers}, 1)
}

// corpusWorkload times full corpus passes, each with a fresh generator.
// Set-up is setupRuns warm-up passes over the paper's corpus (image seed
// 42), whose LOOCV error is the accuracy metric; the timed passes use the
// run's seed as the image seed.
func corpusWorkload(r *run, spec corpusSpec, setupRuns int) error {
	paper, timed := spec, spec
	paper.seed, timed.seed = paperSeed, r.seed

	var warm passOut
	_, err := setups(r, setupRuns, func() (struct{}, func(), error) {
		out, err := runPass(paper)
		if err != nil {
			return struct{}{}, nil, err
		}
		if warm.corpus != nil {
			// Every warm-up pass must reproduce the first.
			r.tally.check(out.digest == warm.digest)
		}
		warm = out
		return struct{}{}, nil, nil
	})
	if err != nil {
		return err
	}
	paperCorpus := warm.corpus
	warm = passOut{}
	host, err := r.newHostProbe()
	if err != nil {
		return err
	}
	defer host.close()
	r.quiesce("set-up", false)

	// The timed window: whole passes, each between two host probes, until
	// the window is spent.
	win := startWindow()
	pr := newProbed(host)
	var passS []float64
	var first, last passOut
	t0 := time.Now()
	for len(passS) == 0 || time.Since(t0) < r.window {
		p0 := time.Now()
		out, err := runPass(timed)
		d := time.Since(p0).Seconds()
		if err != nil {
			r.tally.fail()
			r.logf("pass %d failed: %v", len(passS)+1, err)
			break
		}
		if first.corpus == nil {
			first = out
		}
		r.tally.check(out.digest == first.digest)
		passS = append(passS, d)
		last = out
		pr.probe()
	}
	if err := win.stop(r); err != nil {
		return err
	}
	if last.corpus == nil {
		return fmt.Errorf("no corpus pass completed")
	}
	points := len(last.corpus.Points)
	passMs := make([]float64, len(passS))
	for i, s := range passS {
		passMs[i] = s * pr.scale(i) * 1000
	}
	r.logf("%d passes of %d points: measured %s s; host probes %s s; at reference host speed %s ms",
		len(passS), points, fmtSecs(passS), fmtSecs(pr.probes), fmtSecs(passMs))
	r.set("throughput_per_s", float64(points)/median(passMs)*1000)
	r.latencies("pass at reference host speed", median(passMs), tail(passMs))
	r.set("simcache.hits", float64(last.sim.Hits))
	r.set("simcache.misses", float64(last.sim.Misses))
	r.set("simcache.evictions", float64(last.sim.Evictions))
	r.set("simcache.hit_ratio", last.sim.HitRate())
	r.set("phasesum.analytic_runs", float64(last.analytic))
	r.set("phasesum.exact_fallbacks", float64(last.fallbacks))

	// Accuracy, after the window: LOOCV on the paper corpus, and the fast
	// tier's oracle at this workload's bag size.
	pct, took, err := loocv(paperCorpus)
	if err != nil {
		return err
	}
	r.set("loocv_err_pct", pct)
	r.set("core.loocv_s", took.Seconds())
	if err := r.oracle(spec.k); err != nil {
		return err
	}

	if r.traced {
		return r.traceCorpus(timed, first.digest, median(passS))
	}
	return nil
}

// oracle measures oracle_err_pct at bag size k; exceeding the CI gate is a
// failed output check.
func (r *run) oracle(k int) error {
	pct, err := oracleErrPct(k, r.workers)
	if err != nil {
		return err
	}
	r.tally.check(pct <= maxOracleErrPct)
	r.set("oracle_err_pct", pct)
	r.logf("oracle: fast tier max GPU bag-time error %.4f%% at k=%d (gate %d%%)", pct, k, maxOracleErrPct)
	return nil
}

// traceCorpus composes one serial pass from the layers' entry points twice,
// untraced and traced, checks both against the generator's corpus, and
// records the per-layer split.
func (r *run) traceCorpus(spec corpusSpec, want [32]byte, passS float64) error {
	t0 := time.Now()
	plain, err := composePass(spec, nil)
	if err != nil {
		return err
	}
	plainS := time.Since(t0).Seconds()
	r.tally.check(plain.digest == want)
	plain = passOut{}
	r.quiesce("untraced serial pass", false)

	tr := newTracer()
	t0 = time.Now()
	traced, err := composePass(spec, tr)
	if err != nil {
		return err
	}
	tracedS := time.Since(t0).Seconds()
	r.tally.check(traced.digest == want)

	lt := tr.totals()
	var busy float64
	for _, l := range corpusLayers {
		busy += lt[l].self
	}
	r.setLayers(lt)
	r.set("parallel.efficiency", busy/(float64(spec.workers)*passS))
	r.set("trace.overhead_pct", (tracedS/plainS-1)*100)
	r.set("trace.unaccounted_pct", (tracedS-busy)/tracedS*100)
	r.logf("serial pass: untraced %.3f s, traced %.3f s, layer spans %.3f s; parallel pass %.3f s on %d workers",
		plainS, tracedS, busy, passS, spec.workers)
	r.dominant(lt, corpusLayers, tracedS)
	return r.writeSpans(tr, "")
}

// setLayers records each composed layer's total seconds and call count.
func (r *run) setLayers(lt map[string]layerTime) {
	for _, l := range corpusLayers {
		r.set(l+"_s", lt[l].total)
		if l != "features.vector" {
			r.set(l+"_calls", float64(lt[l].calls))
		}
	}
}

// dominant logs the layer with the largest self time and records its share
// of the traced total.
func (r *run) dominant(lt map[string]layerTime, layers []string, total float64) {
	name, self := dominant(lt, layers)
	r.set("trace.dominant_pct", self/total*100)
	r.logf("dominant layer of %s: %s, %.1f%% of the traced total (%.3f of %.3f s)",
		r.workload, name, self/total*100, self, total)
	for _, l := range layers {
		r.logf("  %-16s %8.3f s self %6.1f%%  %d calls", l, lt[l].self, lt[l].self/total*100, lt[l].calls)
	}
}

// writeSpans writes the tracer's spans to the span directory.
func (r *run) writeSpans(tr *tracer, suffix string) error {
	path := filepath.Join(r.spanDir, fmt.Sprintf("%s-seed%d%s.csv", r.workload, r.seed, suffix))
	if err := tr.write(path); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.logf("spans written to %s", path)
	return nil
}
