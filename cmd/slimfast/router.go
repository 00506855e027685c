// The `slimfast router` subcommand: the cluster coordinator that
// scales the streaming engine across machines. It partitions objects
// over N `slimfast stream -listen -external-epochs` nodes with the
// engine's own shard hash, fans ingest out through the retrying
// resilience client, drives cluster-wide epoch barriers and refines
// over the nodes' /v1/epoch endpoints, and plugs into the same /v1
// handler set a single node serves (api.go) — so clients cannot tell
// a cluster from one big engine, and the merged /v1/estimates and
// /v1/sources bytes are bit-identical to a single-node run over the
// same claim stream (see internal/cluster for the protocol and its
// invariants).
//
// Where the router differs from a node, the difference lives in its
// backend methods: ingest parses the whole body before fan-out (a bad
// row rejects the request atomically), reads scatter-gather, a
// partition failure answers 503 + Retry-After, /v1/checkpoint
// checkpoints every member and then writes the router manifest,
// /v1/healthz and /v1/readyz report per partition (readiness degrades,
// and is 503 only when no member answers), and /v1/features is relayed
// from the first member that runs a learner.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"slimfast/internal/cluster"
	"slimfast/internal/obs"
	"slimfast/internal/query"
	"slimfast/internal/resilience"
	"slimfast/internal/stream"
)

// runRouter implements `slimfast router`.
func runRouter(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("slimfast router", flag.ContinueOnError)
	nodesFlag := fs.String("nodes", "", "comma-separated member base URLs in partition order (e.g. http://10.0.0.1:8080,http://10.0.0.2:8080); members must run `stream -listen -external-epochs`")
	listen := fs.String("listen", "", "serve the cluster HTTP API on this address (e.g. :8080)")
	batch := fs.Int("batch", 1024, "claims per fan-out chunk; must match across router restarts (barriers land on chunk boundaries)")
	epoch := fs.Int("epoch", 1024, "claims per cluster-wide accuracy epoch")
	decay := fs.Float64("decay", 1, "per-observation evidence decay in (0,1]; must match the members' -decay")
	ckptEpochs := fs.Int("checkpoint-epochs", 1, "checkpoint the whole cluster every N barriers (0 = only on demand and at shutdown)")
	manifest := fs.String("manifest", "", "router manifest path: cluster-cumulative state, written atomically at checkpoints and shutdown, restored at boot")
	attempts := fs.Int("attempts", 5, "delivery attempts per node request before the operation fails")
	timeout := fs.Duration("timeout", 30*time.Second, "per-attempt node request timeout")
	seed := fs.Int64("seed", 1, "backoff jitter seed")
	logFormat := fs.String("log-format", "text", "structured log format: text or json")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this side address (e.g. localhost:6060); empty = off")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validLogFormat(*logFormat); err != nil {
		return err
	}
	if *nodesFlag == "" {
		return fmt.Errorf("router: -nodes is required")
	}
	if *listen == "" {
		return fmt.Errorf("router: -listen is required")
	}
	var nodes []string
	for _, n := range strings.Split(*nodesFlag, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, n)
		}
	}
	reg := obs.NewRegistry()
	opts := stream.DefaultOptions()
	opts.Decay = *decay
	rt, err := cluster.New(cluster.Config{
		Nodes:            nodes,
		Batch:            *batch,
		EpochLength:      *epoch,
		Opts:             opts,
		CheckpointEpochs: *ckptEpochs,
		ManifestPath:     *manifest,
		HTTP:             &http.Client{},
		Retry: resilience.ClientConfig{
			MaxAttempts:   *attempts,
			PerTryTimeout: *timeout,
			Seed:          *seed,
		},
		Log:     stdout,
		Metrics: cluster.NewMetrics(reg),
	})
	if err != nil {
		return err
	}
	if *pprofAddr != "" {
		if _, err := startPprof(*pprofAddr, stdout); err != nil {
			return err
		}
	}
	return newRouterServer(rt, stdout, reg, *logFormat).serve(*listen)
}

// routerServer is the cluster backend: every read scatter-gathers
// over the members and every write fans out through the router.
type routerServer struct {
	*server
	rt *cluster.Router
}

// newRouterServer builds the router's HTTP layer; a nil registry gets
// a fresh one.
func newRouterServer(rt *cluster.Router, logw io.Writer, reg *obs.Registry, logFormat string) *routerServer {
	s := &routerServer{rt: rt}
	s.server = newServer(s, logw, reg, logFormat, "router")
	return s
}

// unavailable maps a fan-out failure (a partition down past the retry
// policy) to 503 + Retry-After: the cluster is degraded, the request
// was fine.
func unavailable(err error) error {
	return errStatus(http.StatusServiceUnavailable, "%v", err)
}

// observe parses the whole body before fan-out, so — unlike a member
// node — a bad row rejects the request atomically. A fan-out failure
// loses no claims: the replay client redelivers under the same key,
// chunks the cluster already completed dedup, and the failed partition
// catches up.
func (s *routerServer) observe(r *http.Request, seq string, read func() ([]byte, error)) (any, error) {
	body, err := read()
	if err != nil {
		return nil, err
	}
	var claims []stream.Triple
	if err := parseClaimBody(body, r.Header.Get("Content-Type"), func(tr stream.Triple) error {
		claims = append(claims, tr)
		return nil
	}); err != nil {
		return nil, errStatus(http.StatusBadRequest, "observe: %v", err)
	}
	// The fan-out inherits the request context, so the resilience client
	// stamps this request's X-Request-ID on every member delivery — one
	// ID traces a claim batch from the router through every partition log.
	res, err := s.rt.Ingest(r.Context(), claims, seq)
	if err != nil {
		return nil, unavailable(err)
	}
	requestLogger(r.Context(), s.log).LogAttrs(r.Context(), slog.LevelInfo, "fanned out claims",
		slog.Int("claims", len(claims)), slog.String("seq", seq))
	return res, nil
}

// estimatesCSV concatenates the members' plain dumps in partition
// order — the shard-major bytes of one engine with a shard per member.
func (s *routerServer) estimatesCSV(ctx context.Context, w io.Writer) error {
	if err := s.rt.Estimates(ctx, w); err != nil {
		return unavailable(err)
	}
	return nil
}

// estimates pushes the query down to every member and merges with the
// single-engine fold, so the bytes match one N-shard engine.
func (s *routerServer) estimates(ctx context.Context, q *query.Query, _ bool) (*query.Result, error) {
	res, err := s.rt.Query(ctx, q)
	if err != nil {
		return nil, unavailable(err)
	}
	return res, nil
}

func (s *routerServer) sources(ctx context.Context) (*query.Relation, error) {
	rel, err := s.rt.Sources(ctx)
	if err != nil {
		return nil, unavailable(err)
	}
	return rel, nil
}

// features relays the online learner's feature weights from the first
// member that has one; a learner-less cluster answers 409 like a
// learner-less node.
func (s *routerServer) features(ctx context.Context, w io.Writer) error {
	body, err := s.rt.Features(ctx)
	if err != nil {
		return errStatus(http.StatusConflict, "features: no member has an online learner: %v", err)
	}
	_, err = w.Write(body)
	return err
}

func (s *routerServer) refine(ctx context.Context, sweeps int) (any, error) {
	barriers, err := s.rt.Refine(ctx, sweeps)
	if err != nil {
		return nil, unavailable(err)
	}
	return map[string]any{"sweeps": sweeps, "barriers": barriers}, nil
}

// checkpoint checkpoints every member, then writes the router manifest.
func (s *routerServer) checkpoint(ctx context.Context) (any, error) {
	if err := s.rt.Checkpoint(ctx); err != nil {
		return nil, err
	}
	return map[string]any{"stats": s.rt.Stats()}, nil
}

// health carries each member's own /v1/healthz per partition.
func (s *routerServer) health(ctx context.Context) any {
	status, nodes := s.rt.Health(ctx)
	return map[string]any{"status": status, "router": s.rt.Stats(), "nodes": nodes}
}

// ready degrades per partition: "ready" when every member can take
// load, "degraded" naming the dark partitions while the rest still
// serve, and 503 only when no member answers.
func (s *routerServer) ready(ctx context.Context) (map[string]any, string) {
	status, nodes := s.rt.Ready(ctx)
	var down []int
	for _, n := range nodes {
		if !n.OK {
			down = append(down, n.Partition)
		}
	}
	body := map[string]any{"status": status, "nodes": nodes}
	if len(down) > 0 {
		body["down_partitions"] = down
	}
	if status == "unavailable" {
		return body, "no cluster partition is ready; retry with backoff"
	}
	return body, ""
}

func (s *routerServer) routes() map[string]func(context.Context, []byte) (any, error) { return nil }

func (s *routerServer) start(context.Context) {
	fmt.Fprintf(s.logw, "# routing %d partitions\n", len(s.rt.Nodes()))
}

// stop writes a final manifest so a restarted router resumes exactly
// here.
func (s *routerServer) stop() error {
	if err := s.rt.WriteManifest(); err != nil {
		return err
	}
	st := s.rt.Stats()
	fmt.Fprintf(s.logw, "# shutdown: %d claims routed, %d barriers\n", st.Claims, st.Barriers)
	return nil
}
