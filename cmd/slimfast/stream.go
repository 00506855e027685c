// The `slimfast stream` subcommand: ingest a claim stream from CSV or
// stdin through the sharded incremental engine and emit rolling
// estimates, instead of the batch compile-and-fit pipeline of the bare
// command. With -listen it becomes a long-running HTTP service (see
// serve.go); with -checkpoint / -restore the engine state survives
// process restarts bit for bit.
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"

	"slimfast/internal/data"
	"slimfast/internal/obs"
	"slimfast/internal/online"
	"slimfast/internal/query"
	"slimfast/internal/stream"
)

// runStream implements `slimfast stream`. Claims are read row by row
// (never materializing the dataset), ingested through the sharded
// engine in deterministic batches, and summarized as rolling status
// lines plus final values/accuracies CSVs.
func runStream(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("slimfast stream", flag.ContinueOnError)
	obsPath := fs.String("obs", "-", "observations CSV (source,object,value); - reads stdin")
	shards := fs.Int("shards", 0, "object shards (0 = GOMAXPROCS)")
	workers := fs.Int("workers", 0, "ingest/refine goroutines (0 = GOMAXPROCS)")
	epoch := fs.Int("epoch", 0, "observations per accuracy epoch (0 = default)")
	externalEpochs := fs.Bool("external-epochs", false, "cluster member mode: never refresh accuracies locally; epochs are driven by a router via the /epoch endpoints")
	maxObjects := fs.Int("max-objects", 0, "bound live objects, LRU-evicting beyond (0 = unbounded)")
	decay := fs.Float64("decay", 1, "per-observation evidence decay in (0,1]; 1 = never forget")
	batch := fs.Int("batch", 1024, "claims per deterministic parallel ingest batch")
	every := fs.Int("every", 0, "emit a rolling status line every N observations (0 = off)")
	watch := fs.String("watch", "", "comma-separated object names whose rolling estimates to emit")
	refine := fs.Int("refine", 2, "exact re-sweeps before the final output")
	valuesOut := fs.String("values", "", "write final estimates CSV here (default stdout)")
	accOut := fs.String("accuracies", "", "write final source accuracies CSV here (default stdout)")
	listen := fs.String("listen", "", "serve the HTTP ingest/query API on this address (e.g. :8080) instead of reading -obs")
	ckptPath := fs.String("checkpoint", "", "checkpoint file: written on POST /checkpoint and SIGTERM (serve mode) or after the final output (batch mode)")
	ckptKeep := fs.Int("checkpoint-keep", stream.DefaultCheckpointKeep, "checkpoint generations to retain (newest at the -checkpoint path, older at path.1, path.2, ...)")
	ckptEvery := fs.Duration("checkpoint-every", 0, "write a checkpoint generation this often in serve mode (0 = only on demand and at shutdown)")
	reqTimeout := fs.Duration("request-timeout", 0, "serve mode: bound one request's body read and ingest-lock wait (0 = no deadline)")
	maxInflightMB := fs.Int64("max-inflight-mb", 512, "serve mode: shed /observe with 429 beyond this many MiB of concurrent in-flight bodies (0 = unbounded)")
	maxInflightReqs := fs.Int64("max-inflight-reqs", 256, "serve mode: shed /observe with 429 beyond this many concurrent requests (0 = unbounded)")
	restorePath := fs.String("restore", "", "resume from this checkpoint when it exists (engine flags like -shards then come from the checkpoint); damaged generations fall back to older ones")
	featPath := fs.String("features", "", "source features CSV (source,feature); enables online discriminative reliability learning")
	window := fs.Int("window", 0, "drift window in epochs for the online learner (0 = default; needs -features)")
	logFormat := fs.String("log-format", "text", "serve mode: structured log format, text or json")
	pprofAddr := fs.String("pprof", "", "serve mode: serve net/http/pprof on this side address (e.g. localhost:6060); empty = off")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validLogFormat(*logFormat); err != nil {
		return err
	}
	if *externalEpochs {
		if *epoch != 0 {
			return errors.New("-epoch and -external-epochs are mutually exclusive")
		}
		if *featPath != "" {
			return errors.New("-features is not supported in cluster member mode (-external-epochs): the online σ-table cannot be coordinated remotely")
		}
		*epoch = stream.ExternalEpochLength
	}

	var eng *stream.Engine
	if *restorePath != "" {
		rs := stream.NewCheckpointStore(*restorePath, *ckptKeep)
		rs.Log = stdout
		switch restored, from, err := rs.Restore(); {
		case err == nil:
			eng = restored
			st := eng.Stats()
			fmt.Fprintf(stdout, "# restored %d objects from %d sources (%d observations, epoch %d) from %s\n",
				st.Objects, st.Sources, st.Observations, st.Epoch, from)
		case errors.Is(err, os.ErrNotExist):
			// One command line serves both cold and warm boots.
			fmt.Fprintf(stdout, "# no checkpoint at %s, starting fresh\n", *restorePath)
		default:
			return err
		}
	}
	if *window < 0 {
		return fmt.Errorf("-window must be non-negative, got %d", *window)
	}
	if eng != nil && *featPath != "" {
		// Engine shape comes from the checkpoint, like -shards; saying
		// so matters here because an operator adding -features to a
		// running deployment would otherwise silently keep serving
		// agreement-only accuracies.
		if eng.OnlineLearning() {
			fmt.Fprintf(stdout, "# note: -features ignored, restored checkpoint already carries its feature table\n")
		} else {
			fmt.Fprintf(stdout, "# WARNING: -features ignored: restored checkpoint has no online learner; delete %s (or checkpoint elsewhere) to enable it\n", *restorePath)
		}
	}
	if eng != nil && *externalEpochs && !eng.ExternalEpochs() {
		// Like -shards, the epoch length comes from the checkpoint; a
		// node restored from a single-process checkpoint would keep
		// refreshing locally and fork the cluster's accuracy state.
		return fmt.Errorf("-external-epochs conflicts with the restored checkpoint (local epoch length %d); checkpoint elsewhere or drop the flag", eng.Stats().EpochLength)
	}
	if eng == nil {
		opts := stream.DefaultEngineOptions()
		opts.Shards = *shards
		opts.Workers = *workers
		opts.EpochLength = *epoch
		opts.MaxObjects = *maxObjects
		opts.Decay = *decay
		if *featPath != "" {
			f, err := os.Open(*featPath)
			if err != nil {
				return err
			}
			features, err := data.ReadSourceFeaturesCSV(f)
			f.Close()
			if err != nil {
				return err
			}
			opts.Features = features
			opts.OnlineLearn = true
			if *window > 0 {
				opts.Learn = online.DefaultConfig()
				opts.Learn.InitAccuracy = opts.InitAccuracy
				opts.Learn.WindowEpochs = *window
			}
			fmt.Fprintf(stdout, "# online learning over %d featured sources\n", len(features))
		}
		var err error
		if eng, err = stream.NewEngine(opts); err != nil {
			return err
		}
	}
	var store *stream.CheckpointStore
	if *ckptPath != "" {
		store = stream.NewCheckpointStore(*ckptPath, *ckptKeep)
		store.Log = stdout
	}
	if *listen != "" {
		// One registry per process: engine internals, checkpoint store
		// and the HTTP layer all expose through GET /v1/metrics.
		reg := obs.NewRegistry()
		eng.SetMetrics(stream.NewMetrics(reg))
		if store != nil {
			store.Metrics = stream.NewStoreMetrics(reg)
		}
		if *pprofAddr != "" {
			if _, err := startPprof(*pprofAddr, stdout); err != nil {
				return err
			}
		}
		return newStreamServer(eng, serveConfig{
			Batch:            *batch,
			Store:            store,
			CheckpointEvery:  *ckptEvery,
			RequestTimeout:   *reqTimeout,
			MaxInflightBytes: *maxInflightMB << 20,
			MaxInflightReqs:  *maxInflightReqs,
			Registry:         reg,
			LogFormat:        *logFormat,
		}, stdout).serve(*listen)
	}
	var watched []string
	if *watch != "" {
		watched = strings.Split(*watch, ",")
	}
	if *batch < 1 {
		*batch = 1
	}

	in := stdin
	if *obsPath != "-" && *obsPath != "" {
		f, err := os.Open(*obsPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}

	status := func(n int64) {
		st := eng.Stats()
		fmt.Fprintf(stdout, "# obs=%d sources=%d objects=%d epoch=%d evicted=%d\n",
			n, st.Sources, st.Objects, st.Epoch, st.EvictedObjects)
		for _, o := range watched {
			if v, conf, ok := eng.Value(o); ok {
				fmt.Fprintf(stdout, "# watch %s = %s (%.4f)\n", o, v, conf)
			} else {
				fmt.Fprintf(stdout, "# watch %s = ? (unseen or evicted)\n", o)
			}
		}
	}

	// Ingest in fixed-size batches: the batch boundary (not the worker
	// count) determines epoch turnover, so a re-run of the same stream
	// with different -workers produces bit-identical output.
	buf := make([]stream.Triple, 0, *batch)
	var n, lastTick int64
	flush := func() {
		if len(buf) == 0 {
			return
		}
		eng.ObserveBatch(buf)
		n += int64(len(buf))
		buf = buf[:0]
		if *every > 0 && n-lastTick >= int64(*every) {
			lastTick = n
			status(n)
		}
	}
	if err := data.StreamObservationsCSV(in, func(source, object, value string) error {
		buf = append(buf, stream.Triple{Source: source, Object: object, Value: value})
		if len(buf) == cap(buf) {
			flush()
		}
		return nil
	}); err != nil {
		return err
	}
	flush()
	if n == 0 && eng.Stats().Observations == 0 {
		return fmt.Errorf("no observations in %s", *obsPath)
	}

	eng.Refine(*refine)
	st := eng.Stats()
	fmt.Fprintf(stdout, "# fused %d live objects from %d sources (%d observations, %d evicted) via %d-shard stream\n",
		st.Objects, st.Sources, st.Observations, st.EvictedObjects, st.Shards)

	if err := writeStreamValues(*valuesOut, stdout, eng); err != nil {
		return err
	}
	if err := writeStreamAccuracies(*accOut, stdout, eng); err != nil {
		return err
	}
	if store != nil {
		if err := store.Write(eng); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "# checkpoint written to %s\n", store.Path())
	}
	return nil
}

// writeEstimatesCSV emits the final estimates in the exchange format.
// The CLI's -values output and the server's plain GET /v1/estimates
// share this one emitter, so a served engine and a batch run produce
// comparable bytes. Rows stream through Engine.EstimatesSeq —
// shard-major, names sorted within each shard, deterministic for a
// fixed shard count — so huge object sets never materialize in one
// slice or map.
func writeEstimatesCSV(w io.Writer, eng *stream.Engine) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"object", "value", "confidence"}); err != nil {
		return err
	}
	for est := range eng.EstimatesSeq() {
		if err := cw.Write([]string{est.Object, est.Value, fmt.Sprintf("%.4f", est.Confidence)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// writeFeatureWeightsCSV emits the online learner's model for the
// server's GET /features: the intercept first, then every feature
// label sorted, each with its learned logit-space weight.
func writeFeatureWeightsCSV(w io.Writer, intercept float64, feats []online.WeightedFeature) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"feature", "weight"}); err != nil {
		return err
	}
	if err := cw.Write([]string{"(intercept)", fmt.Sprintf("%.6f", intercept)}); err != nil {
		return err
	}
	sorted := append([]online.WeightedFeature(nil), feats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Label < sorted[j].Label })
	for _, f := range sorted {
		if err := cw.Write([]string{f.Label, fmt.Sprintf("%.6f", f.Weight)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func writeStreamValues(path string, stdout io.Writer, eng *stream.Engine) error {
	w, closeFn, err := openOut(path, stdout)
	if err != nil {
		return err
	}
	defer closeFn()
	return writeEstimatesCSV(w, eng)
}

func writeStreamAccuracies(path string, stdout io.Writer, eng *stream.Engine) error {
	w, closeFn, err := openOut(path, stdout)
	if err != nil {
		return err
	}
	defer closeFn()
	rel := sourcesRelation(eng)
	return query.WriteCSV(w, &query.Result{Cols: rel.Cols, Rows: slices.Values(rel.Rows)})
}
