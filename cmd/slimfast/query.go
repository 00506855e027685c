// The `slimfast query` subcommand: the relational query language from
// GET /v1/estimates, runnable from the shell against a live server
// (-to) or a checkpoint file (-from) — same grammar, same bytes.
//
//	slimfast query -to http://host:8080 'order=-contested&limit=10'
//	slimfast query -from state.ckpt 'where=changed>=12&cols=object,value'
//	slimfast query -from state.ckpt -table sources -generations 3 'where=source=s0'
//
// Against a live server the query string is forwarded verbatim to
// GET {to}/v1/{table}, so the server's schema (including the online
// learner's extra source columns) applies. Against a checkpoint the
// engine is restored in memory and queried locally; -generations N
// additionally walks the retained checkpoint generations (path,
// path.1, …, path.N-1) oldest-first and prefixes each row with
// generation and epoch columns — an as-of trajectory, e.g. a source's
// accuracy across the last N checkpoints.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"

	"slimfast/internal/query"
	"slimfast/internal/stream"
)

// runQuery implements `slimfast query`.
func runQuery(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("slimfast query", flag.ContinueOnError)
	to := fs.String("to", "", "query a live server at this base URL (e.g. http://127.0.0.1:8080)")
	from := fs.String("from", "", "query a checkpoint file instead of a server")
	table := fs.String("table", "estimates", "relation to query: estimates or sources")
	format := fs.String("format", "csv", "output format: csv or json (NDJSON)")
	generations := fs.Int("generations", 1, "with -from: walk up to N retained checkpoint generations (path, path.1, ...), oldest first, prefixing generation and epoch columns")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*to == "") == (*from == "") {
		return fmt.Errorf("query: exactly one of -to or -from is required")
	}
	if *table != "estimates" && *table != "sources" {
		return fmt.Errorf("query: unknown -table %q (want estimates or sources)", *table)
	}
	switch *format {
	case "csv", "json", "ndjson":
	default:
		return fmt.Errorf("query: unknown -format %q (want csv or json)", *format)
	}
	if *generations < 1 {
		return fmt.Errorf("query: -generations must be >= 1")
	}
	raw := strings.Join(fs.Args(), "&")
	vals, err := url.ParseQuery(raw)
	if err != nil {
		return fmt.Errorf("query: parsing %q: %w", raw, err)
	}
	if *to != "" {
		if *generations != 1 {
			return fmt.Errorf("query: -generations needs -from (a server has no retained generations to walk)")
		}
		return queryServer(*to, *table, *format, vals, stdout)
	}
	return queryCheckpoint(*from, *table, *format, *generations, vals, stdout)
}

// queryServer forwards the query string verbatim to the live /v1
// endpoint, so the server's schema and validation apply, and relays
// the body. A non-2xx answer is decoded from the uniform error
// envelope into a command error.
func queryServer(base, table, format string, vals url.Values, stdout io.Writer) error {
	vals.Set("format", format)
	u := strings.TrimSuffix(base, "/") + "/v1/" + table + "?" + vals.Encode()
	resp, err := http.Get(u)
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("query: reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		var envelope struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if json.Unmarshal(body, &envelope) == nil && envelope.Error != "" {
			return fmt.Errorf("query: server answered %d (%s): %s", resp.StatusCode, envelope.Code, envelope.Error)
		}
		return fmt.Errorf("query: server answered %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	_, err = stdout.Write(body)
	return err
}

// queryCheckpoint restores each requested generation and runs the
// query locally. With -generations 1 the output is byte-identical to
// asking a server restored from the same file; beyond that, rows gain
// generation (store slot, 0 = newest) and epoch columns and
// generations are emitted oldest-first so trajectories read forward
// in time. Missing or damaged generations are skipped with a warning,
// matching the restore fallback semantics of the serving store.
func queryCheckpoint(path, table, format string, generations int, vals url.Values, stdout io.Writer) error {
	single := generations == 1
	store := stream.NewCheckpointStore(path, generations)
	var out *query.Result
	restored := 0
	for i := generations - 1; i >= 0; i-- {
		gen := store.GenPath(i)
		eng, err := stream.RestoreFile(gen)
		if err != nil {
			if single {
				return fmt.Errorf("query: %w", err)
			}
			if !errors.Is(err, os.ErrNotExist) {
				fmt.Fprintf(os.Stderr, "# WARNING: skipping checkpoint generation %s: %v\n", gen, err)
			}
			continue
		}
		restored++
		// The node's own read path: a streamServer's estimates and
		// sources touch only its engine.
		res, err := runRead(context.Background(), &streamServer{eng: eng}, table, vals, false)
		if err != nil {
			return fmt.Errorf("query: %w", err)
		}
		if single {
			out = res
			break
		}
		out = appendGeneration(out, res, i, eng.CurrentEpoch())
	}
	if restored == 0 {
		return fmt.Errorf("query: no readable checkpoint generation at %s", path)
	}
	return query.Write(stdout, out, format)
}

// appendGeneration materializes res and appends its rows to out with
// generation and epoch prefix columns, building the trajectory result
// incrementally.
func appendGeneration(out, res *query.Result, generation int, epoch int64) *query.Result {
	rel := query.Materialize(res)
	if out == nil {
		cols := append([]query.Column{
			{Name: "generation", Kind: query.KindInt},
			{Name: "epoch", Kind: query.KindInt},
		}, rel.Cols...)
		out = &query.Result{Cols: cols}
	}
	rows := make([][]query.Val, 0, len(rel.Rows))
	for _, r := range rel.Rows {
		row := append([]query.Val{
			{Kind: query.KindInt, Int: int64(generation)},
			{Kind: query.KindInt, Int: int64(epoch)},
		}, r...)
		rows = append(rows, row)
	}
	prev := out.Rows
	out.Rows = func(yield func([]query.Val) bool) {
		if prev != nil {
			for r := range prev {
				if !yield(r) {
					return
				}
			}
		}
		for _, r := range rows {
			if !yield(r) {
				return
			}
		}
	}
	return out
}
