// Command slimfast runs data fusion on CSV or JSON inputs.
//
// Usage:
//
//	slimfast -obs observations.csv [-features features.csv] [-truth truth.csv] \
//	         [-algorithm auto|erm|em] [-copy N] [-values out.csv] [-accuracies out.csv]
//	slimfast -json dataset.json [...]
//	slimfast stream [-obs observations.csv|-] [-shards N] [-workers N] [-epoch N] \
//	         [-max-objects N] [-decay f] [-every N] [-watch o1,o2] [-refine N] \
//	         [-values out.csv] [-accuracies out.csv] \
//	         [-checkpoint state.ckpt] [-restore state.ckpt]
//	slimfast stream -listen :8080 [-checkpoint state.ckpt] [-restore state.ckpt] [-batch N]
//	slimfast replay [-obs observations.csv|-] -to http://host:port [-batch N] [-attempts N]
//	slimfast router -nodes http://n1:8080,http://n2:8080 -listen :8080 \
//	         [-batch N] [-epoch N] [-checkpoint-epochs N] [-manifest cluster.json]
//	slimfast query [-to http://host:port | -from state.ckpt] [-table estimates|sources] \
//	         [-format csv|json] [-generations N] 'where=...&order=...&limit=...'
//
// The observations CSV has a "source,object,value" header; features
// "source,feature"; truth "object,value". With -json, a single document
// in the format produced by cmd/datagen and data.WriteJSON replaces the
// three CSVs. Fused values and estimated source accuracies are written
// as CSV (stdout by default, dash-separated into the two -values /
// -accuracies files when given).
//
// The stream subcommand ingests the observations CSV (or stdin with
// -obs -) through the sharded incremental engine instead of the batch
// pipeline: claims are consumed row by row, rolling status lines and
// -watch'd object estimates are emitted every -every observations, and
// the final estimates come from an exact -refine re-sweep.
//
// With -listen the stream subcommand serves an HTTP API instead of
// reading a file: POST /v1/observe ingests NDJSON or CSV claims, GET
// /v1/estimates and GET /v1/sources report the live state (with the
// relational query language — see the query subcommand and
// docs/API.md), POST /v1/checkpoint and SIGTERM write a durable
// engine checkpoint to the -checkpoint path, and -restore resumes
// from one — bit-identically, so a restarted server converges to
// exactly the state of one that never stopped. See the README's
// Operations section.
//
// The query subcommand runs the same relational query language from
// the shell, against a live server (-to) or a checkpoint file (-from);
// -generations walks retained checkpoint generations for as-of
// trajectories. See cmd/slimfast/query.go.
//
// The router subcommand turns N serving nodes into one cluster:
// objects are consistently hash-partitioned across the nodes, ingest
// fans out with per-node idempotency keys, and the router coordinates
// cluster-wide accuracy epochs, refines and checkpoints so the merged
// estimates are bit-identical to a single engine. See the README's
// Cluster section and docs/ARCHITECTURE.md.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"slimfast/internal/core"
	"slimfast/internal/data"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "slimfast:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 && args[0] == "stream" {
		return runStream(args[1:], os.Stdin, stdout)
	}
	if len(args) > 0 && args[0] == "replay" {
		return runReplay(args[1:], os.Stdin, stdout)
	}
	if len(args) > 0 && args[0] == "router" {
		return runRouter(args[1:], stdout)
	}
	if len(args) > 0 && args[0] == "query" {
		return runQuery(args[1:], stdout)
	}
	fs := flag.NewFlagSet("slimfast", flag.ContinueOnError)
	obsPath := fs.String("obs", "", "observations CSV (source,object,value)")
	featPath := fs.String("features", "", "source features CSV (source,feature)")
	truthPath := fs.String("truth", "", "ground truth CSV (object,value)")
	jsonPath := fs.String("json", "", "JSON dataset (alternative to the CSVs)")
	algorithm := fs.String("algorithm", "auto", "learning algorithm: auto, erm or em")
	copyOverlap := fs.Int("copy", 0, "enable copy detection for pairs sharing at least N objects (0 = off)")
	valuesOut := fs.String("values", "", "write fused values CSV here (default stdout)")
	accOut := fs.String("accuracies", "", "write source accuracies CSV here (default stdout)")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var ds *data.Dataset
	var train data.TruthMap
	switch {
	case *jsonPath != "":
		f, err := os.Open(*jsonPath)
		if err != nil {
			return err
		}
		defer f.Close()
		ds, train, err = data.ReadJSON(f)
		if err != nil {
			return err
		}
	case *obsPath != "":
		b := data.NewBuilder(*obsPath)
		if err := readInto(*obsPath, func(r io.Reader) error { return data.ReadObservationsCSV(r, b) }); err != nil {
			return err
		}
		if *featPath != "" {
			if err := readInto(*featPath, func(r io.Reader) error { return data.ReadFeaturesCSV(r, b) }); err != nil {
				return err
			}
		}
		var truthNames map[string]string
		if *truthPath != "" {
			if err := readInto(*truthPath, func(r io.Reader) error {
				var err error
				truthNames, err = data.ReadTruthCSV(r)
				return err
			}); err != nil {
				return err
			}
		}
		ds = b.Freeze()
		if truthNames != nil {
			var err error
			train, err = data.TruthFromNames(ds, truthNames)
			if err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("need -obs or -json (run with -h for usage)")
	}
	if err := ds.Validate(); err != nil {
		return err
	}

	opts := core.DefaultOptions()
	opts.Optim.Seed = *seed
	if *copyOverlap > 0 {
		opts.CopyFeatures = true
		opts.MinCopyOverlap = *copyOverlap
	}
	model, err := core.Compile(ds, opts)
	if err != nil {
		return err
	}
	var res *core.Result
	switch *algorithm {
	case "auto":
		res, _, err = model.FuseAuto(train, core.DefaultOptimizerOptions())
	case "erm":
		res, err = model.Fuse(core.AlgorithmERM, train)
	case "em":
		res, err = model.Fuse(core.AlgorithmEM, train)
	default:
		return fmt.Errorf("unknown -algorithm %q", *algorithm)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# fused %d objects from %d sources (%d observations) via %s\n",
		len(res.Values), ds.NumSources(), ds.NumObservations(), res.Algorithm)

	if err := writeValues(*valuesOut, stdout, ds, res); err != nil {
		return err
	}
	return writeAccuracies(*accOut, stdout, ds, res)
}

func readInto(path string, fn func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(f)
}

func openOut(path string, stdout io.Writer) (io.Writer, func() error, error) {
	if path == "" {
		return stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func writeValues(path string, stdout io.Writer, ds *data.Dataset, res *core.Result) error {
	w, closeFn, err := openOut(path, stdout)
	if err != nil {
		return err
	}
	defer closeFn()
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"object", "value", "confidence"}); err != nil {
		return err
	}
	objects := make([]int, 0, len(res.Values))
	for o := range res.Values {
		objects = append(objects, int(o))
	}
	sort.Ints(objects)
	for _, o := range objects {
		oid := data.ObjectID(o)
		v := res.Values[oid]
		conf := res.Posterior(oid)[v]
		rec := []string{ds.ObjectNames[o], ds.ValueNames[v], fmt.Sprintf("%.4f", conf)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func writeAccuracies(path string, stdout io.Writer, ds *data.Dataset, res *core.Result) error {
	w, closeFn, err := openOut(path, stdout)
	if err != nil {
		return err
	}
	defer closeFn()
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"source", "accuracy"}); err != nil {
		return err
	}
	for s, name := range ds.SourceNames {
		if err := cw.Write([]string{name, fmt.Sprintf("%.4f", res.SourceAccuracies[s])}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
