// Command mapc-serve runs the HTTP prediction service: it warm-loads a
// persisted model (mapc-train -o) or trains one at startup, then answers
// GPU bag-time queries until SIGTERM/SIGINT, draining in-flight requests on
// shutdown.
//
// Endpoints:
//
//	POST /v1/predict  {"a":{"benchmark":"sift","batch":20},"b":{"benchmark":"surf","batch":20}}
//	                  or {"bag":[{"benchmark":…,"batch":…},…]}          (k-app bag)
//	                  or {"bags":[{"a":…,"b":…},{"members":[…]},…]}     (batched, mixed forms)
//	                  → {"model_scheme":…,"results":[{"members":[…],"predicted_gpu_bag_time_sec":…,…}]}
//	GET  /v1/cache/snapshot              (the feature cache, for peer warm starts)
//	GET  /v1/cache/entry?key=<bag key>   (one cached bag, for peer fill)
//	GET  /healthz
//	GET  /metrics
//
// Every bag in a request must carry exactly as many applications as the
// loaded model was trained for (-k at train time); other sizes get a 400.
// Each result lists its bag under "members", whichever request form
// carried it.
//
// Usage:
//
//	mapc-serve                              # train full-scheme model, :8080
//	mapc-serve -model model.json            # warm-load; scheme must match -scheme
//	mapc-serve -k 4                         # train and serve 4-app bags
//	mapc-serve -benchmarks sift,surf -batches 20,40   # fast-start subset
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mapc/internal/core"
	"mapc/internal/dataset"
	"mapc/internal/phasesum"
	"mapc/internal/profiling"
	"mapc/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	modelPath := flag.String("model", "", "load a saved model (mapc-train -o) instead of training at startup")
	schemeName := flag.String("scheme", "full", "feature scheme: insmix, insmix+cputime, insmix+cputime+fairness, full; a loaded model must match")
	k := flag.Int("k", 2, "bag size for startup training and served predictions (ignored when -model is set: the model pins its own bag size)")
	workers := flag.Int("workers", 0, "measurement worker goroutines (0 = NumCPU, 1 = serial)")
	simCacheMB := flag.Int("simcache-mb", dataset.DefaultSimCacheMB, "simulation memo budget in MiB (0 = off); output is identical at every budget")
	maxInFlight := flag.Int("max-inflight", serve.DefaultMaxInFlight, "concurrent /v1/predict requests admitted before shedding with 503")
	maxBatch := flag.Int("max-batch", serve.DefaultMaxBatch, "maximum bags per request")
	timeout := flag.Duration("timeout", serve.DefaultRequestTimeout, "per-request deadline")
	grace := flag.Duration("grace", 30*time.Second, "shutdown drain budget for in-flight requests")
	benchmarks := flag.String("benchmarks", "", "comma-separated benchmark subset for startup training (empty = full Table-II suite)")
	batches := flag.String("batches", "", "comma-separated batch sizes for startup training (empty = 20,40,80,160,320)")
	pprofAddr := flag.String("pprof", "", "opt-in net/http/pprof listener on a separate loopback address (e.g. 127.0.0.1:6060); empty = disabled")
	featureCacheMB := flag.Int("feature-cache-mb", serve.DefaultFeatureCacheMB, "cross-request feature cache budget in MiB (LRU past it; cannot be disabled)")
	snapshotPath := flag.String("snapshot", "", "feature-cache snapshot file: loaded at boot when present, saved atomically on drain")
	warmFrom := flag.String("warm-from", "", "peer replica base URL to pull a cache snapshot from at boot (e.g. http://127.0.0.1:8081)")
	peers := flag.String("peers", "", "comma-separated peer base URLs consulted on cache misses before simulating locally")
	fidelity := flag.String("fidelity", "exact", "co-run fidelity tier for training and served measurements: exact | fast (isolated runs stay exact; /metrics reports the tier and per-kind co-run counts)")
	shares := flag.String("shares", "", "MPS share profile for every shared GPU co-run: k slash- or comma-separated relative weights, e.g. 0.7/0.3 (empty = equal split); share-qualifies the feature cache and snapshots")
	brownout := flag.Float64("brownout-watermark", serve.DefaultBrownoutWatermark, "in-flight fraction of -max-inflight past which new requests are answered from the fast fidelity tier and marked degraded; 0 disables brownout (shed-only admission)")
	maxDegraded := flag.Int("max-degraded-inflight", 0, "extra admission slots for degraded answers once the exact pool is full; 0 = 4x -max-inflight")
	flag.Parse()

	if *pprofAddr != "" {
		ln, err := profiling.ListenAndServe(*pprofAddr, func(err error) {
			fmt.Fprintln(os.Stderr, "mapc-serve: pprof:", err)
		})
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "mapc-serve: pprof listening on http://%s/debug/pprof/ (loopback only)\n", ln.Addr())
	}

	scheme, ok := core.SchemeByName(*schemeName)
	if !ok {
		fatal(fmt.Errorf("unknown scheme %q", *schemeName))
	}

	cfg := dataset.DefaultConfig()
	cfg.Workers = *workers
	cfg.SimCacheMB = *simCacheMB
	cfg.K = *k
	fid, err := phasesum.ParseFidelity(*fidelity)
	if err != nil {
		fatal(err)
	}
	cfg.Fidelity = fid
	if *shares != "" {
		cfg.Shares, err = dataset.ParseShares(*shares)
		if err != nil {
			fatal(fmt.Errorf("parsing -shares: %w", err))
		}
	}
	if *benchmarks != "" {
		if cfg.Benchmarks, err = dataset.ParseList("-benchmarks", *benchmarks); err != nil {
			fatal(err)
		}
	}
	if *batches != "" {
		bs, err := dataset.ParseBatches("-batches", *batches)
		if err != nil {
			fatal(err)
		}
		cfg.BatchSizes = bs
	}
	var peerList []string
	if *peers != "" {
		if peerList, err = dataset.ParseList("-peers", *peers); err != nil {
			fatal(err)
		}
	}
	gen, err := dataset.NewGenerator(cfg)
	if err != nil {
		fatal(err)
	}

	var model *core.Predictor
	if *modelPath != "" {
		model, err = core.LoadFile(*modelPath)
		if err != nil {
			fatal(err)
		}
		// Refuse a model trained under a different scheme loudly: it would
		// accept the same full-width vectors yet answer a different
		// question.
		if err := model.RequireScheme(scheme); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mapc-serve: loaded model %s (scheme %s, %d features, trained on %d points)\n",
			*modelPath, model.Scheme().Name, model.NumFeatures(), model.TrainedOnPoints())
	} else {
		fmt.Fprintf(os.Stderr, "mapc-serve: no -model; generating training corpus (%d workers)...\n", cfg.EffectiveWorkers())
		t0 := time.Now()
		corpus, err := gen.Generate()
		if err != nil {
			fatal(err)
		}
		model, err = core.Train(corpus, scheme, core.DefaultTreeParams())
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mapc-serve: trained scheme-%s model on %d points in %v\n",
			scheme.Name, model.TrainedOnPoints(), time.Since(t0).Round(time.Millisecond))
	}

	srv, err := serve.New(serve.Config{
		Model:               model,
		Generator:           gen,
		MaxInFlight:         *maxInFlight,
		MaxBatch:            *maxBatch,
		RequestTimeout:      *timeout,
		Workers:             *workers,
		FeatureCacheMB:      *featureCacheMB,
		BrownoutWatermark:   *brownout,
		MaxDegradedInFlight: *maxDegraded,
	})
	if err != nil {
		fatal(err)
	}

	// Warm start, cheapest source first: a local snapshot survives restarts
	// without any network; -warm-from pulls a serving peer's cache at join;
	// -peers keeps filling misses from siblings while running.
	if *snapshotPath != "" {
		switch n, err := srv.LoadSnapshotFile(*snapshotPath); {
		case err == nil:
			fmt.Fprintf(os.Stderr, "mapc-serve: warm-started %d cached bags from %s\n", n, *snapshotPath)
		case os.IsNotExist(err):
			fmt.Fprintf(os.Stderr, "mapc-serve: no snapshot at %s yet; starting cold\n", *snapshotPath)
		default:
			fatal(fmt.Errorf("loading snapshot %s: %w", *snapshotPath, err))
		}
	}
	if *warmFrom != "" {
		warmCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		n, err := srv.WarmFromPeer(warmCtx, nil, *warmFrom)
		cancel()
		if err != nil {
			// A missing peer must not block boot: the replica serves cold.
			fmt.Fprintf(os.Stderr, "mapc-serve: warm-from %s failed (%v); starting cold\n", *warmFrom, err)
		} else {
			fmt.Fprintf(os.Stderr, "mapc-serve: warm-started %d cached bags from peer %s\n", n, *warmFrom)
		}
	}
	if peerList != nil {
		srv.SetPeerFill(nil, peerList, 0)
		fmt.Fprintf(os.Stderr, "mapc-serve: peer fill enabled against %d peer(s)\n", len(peerList))
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	brownoutDesc := "off"
	if *brownout > 0 {
		brownoutDesc = fmt.Sprintf("%.2f", *brownout)
	}
	fmt.Fprintf(os.Stderr, "mapc-serve: listening on %s (scheme %s, max-inflight %d, timeout %v, brownout %s)\n",
		*addr, model.Scheme().Name, *maxInFlight, *timeout, brownoutDesc)

	select {
	case err := <-errc:
		fatal(err) // listener failed before any signal
	case <-ctx.Done():
		fmt.Fprintf(os.Stderr, "mapc-serve: signal received; draining in-flight requests (up to %v)...\n", *grace)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fatal(fmt.Errorf("shutdown: %w", err))
		}
		if err := <-errc; err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
		if *snapshotPath != "" {
			if err := srv.SaveSnapshotFile(*snapshotPath); err != nil {
				fmt.Fprintf(os.Stderr, "mapc-serve: saving snapshot: %v\n", err)
			} else {
				fmt.Fprintf(os.Stderr, "mapc-serve: saved %d cached bags to %s\n", srv.CacheLen(), *snapshotPath)
			}
		}
		fmt.Fprintln(os.Stderr, "mapc-serve: drained; bye")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mapc-serve:", err)
	os.Exit(1)
}
