package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"slimfast/internal/resilience"
	"slimfast/internal/stream"
)

// manifestVersion is the cluster manifest schema version (see
// docs/WIRE_FORMAT.md for the layout and its compatibility rules).
const manifestVersion = 1

// Manifest is the router's durable state, written atomically beside
// the nodes' checkpoint generations. JSON keeps it inspectable with
// standard tooling, and Go's shortest-representation float encoding
// round-trips every float64 bit-exactly, so a restored router resumes
// the accuracy fold on the very same numbers.
type Manifest struct {
	Version     int      `json:"version"`
	Nodes       []string `json:"nodes"`
	Batch       int      `json:"batch"`
	EpochLength int      `json:"epoch_length"`

	Claims   int64 `json:"claims"`
	Barriers int64 `json:"barriers"`
	Refines  int64 `json:"refines"`
	// SinceEpoch and PendingBarrier restore the router's position
	// between barriers, so a restart cannot shift where the next
	// barrier lands in the claim stream.
	SinceEpoch     int  `json:"since_epoch"`
	PendingBarrier bool `json:"pending_barrier,omitempty"`

	// Sources is the cluster-cumulative settled evidence in intern
	// order — the fold order is part of the state.
	Sources []ManifestSource `json:"sources"`

	// SeqKeys is the chunk dedup window, oldest first.
	SeqKeys []string `json:"seq_keys"`

	Options ManifestOptions `json:"options"`
}

// ManifestSource is one source's cumulative evidence.
type ManifestSource struct {
	Source string  `json:"source"`
	Agree  float64 `json:"agree"`
	Total  float64 `json:"total"`
}

// ManifestOptions pins the streaming options the evidence was folded
// under; restoring with different options would change the math. The
// prior slots always hold stream.InitAccuracy and stream.PriorStrength.
type ManifestOptions struct {
	InitAccuracy  float64 `json:"init_accuracy"`
	PriorStrength float64 `json:"prior_strength"`
	Decay         float64 `json:"decay"`
}

// manifestLocked snapshots the router state.
func (r *Router) manifestLocked() Manifest {
	m := Manifest{
		Version:        manifestVersion,
		Nodes:          append([]string(nil), r.cfg.Nodes...),
		Batch:          r.cfg.Batch,
		EpochLength:    r.cfg.EpochLength,
		Claims:         r.claims,
		Barriers:       r.barriers,
		Refines:        r.refines,
		SinceEpoch:     r.since,
		PendingBarrier: r.pendingBarrier,
		Sources:        make([]ManifestSource, len(r.names)),
		Options:        r.manifestOptions(),
	}
	for i, name := range r.names {
		m.Sources[i] = ManifestSource{Source: name, Agree: r.agree[i], Total: r.total[i]}
	}
	// Oldest-first so a restore refills the window in the same
	// eviction order.
	m.SeqKeys = r.seen.Keys()
	return m
}

// manifestOptions is the options block this router writes, and the
// only one it restores.
func (r *Router) manifestOptions() ManifestOptions {
	return ManifestOptions{
		InitAccuracy:  stream.InitAccuracy,
		PriorStrength: stream.PriorStrength,
		Decay:         r.cfg.Opts.Decay,
	}
}

// writeManifestLocked writes the manifest atomically: temp file in
// the target directory, fsync, then rename, so a crash mid-write
// leaves the previous manifest intact. The directory is synced too, or
// a power loss could undo the rename while the members' newer
// checkpoint generations survive; that sync is best-effort, as for the
// checkpoints, since some filesystems refuse directory fsync.
func (r *Router) writeManifestLocked() error {
	data, err := encodeManifest(r.manifestLocked())
	if err != nil {
		return err
	}
	dir := filepath.Dir(r.cfg.ManifestPath)
	tmp, err := os.CreateTemp(dir, filepath.Base(r.cfg.ManifestPath)+".tmp*")
	if err != nil {
		return fmt.Errorf("cluster: writing manifest: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("cluster: writing manifest: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("cluster: syncing manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("cluster: closing manifest: %w", err)
	}
	if err := os.Rename(tmp.Name(), r.cfg.ManifestPath); err != nil {
		return fmt.Errorf("cluster: installing manifest: %w", err)
	}
	_ = resilience.OS.SyncDir(dir) // best-effort, as above
	return nil
}

// encodeManifest is the manifest's on-disk form: indented JSON with a
// trailing newline.
func encodeManifest(m Manifest) ([]byte, error) {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding manifest: %w", err)
	}
	return append(data, '\n'), nil
}

// LoadManifest reads and validates a manifest file.
func LoadManifest(path string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("cluster: parsing manifest %s: %w", path, err)
	}
	if m.Version != manifestVersion {
		return m, fmt.Errorf("cluster: manifest %s has version %d, this build supports %d", path, m.Version, manifestVersion)
	}
	return m, nil
}

// restoreManifest adopts a persisted manifest at boot. A missing file
// is a cold start, not an error. The restored state must be layout-
// compatible with the configuration: the node count fixes the object
// partitioning, and batch size, epoch length and streaming options
// fix where barriers land and what they compute — silently adopting
// different values would fork the cluster history. Node addresses may
// change (rolling restarts move ports); a change is logged.
func (r *Router) restoreManifest(path string) error {
	m, err := LoadManifest(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if len(m.Nodes) != len(r.cfg.Nodes) {
		return fmt.Errorf("cluster: manifest %s was written for %d nodes, got %d; object partitions do not move",
			path, len(m.Nodes), len(r.cfg.Nodes))
	}
	if m.Batch != r.cfg.Batch || m.EpochLength != r.cfg.EpochLength {
		return fmt.Errorf("cluster: manifest %s was written with -batch %d -epoch %d (configured %d/%d); barrier positions depend on both",
			path, m.Batch, m.EpochLength, r.cfg.Batch, r.cfg.EpochLength)
	}
	if mo := r.manifestOptions(); m.Options != mo {
		return fmt.Errorf("cluster: manifest %s was folded under options %+v, configured %+v", path, m.Options, mo)
	}
	for i, node := range m.Nodes {
		if node != r.cfg.Nodes[i] {
			fmt.Fprintf(r.log, "# note: partition %d moved from %s to %s\n", i, node, r.cfg.Nodes[i])
		}
	}
	r.claims = m.Claims
	r.barriers = m.Barriers
	r.refines = m.Refines
	r.since = m.SinceEpoch
	r.pendingBarrier = m.PendingBarrier
	for _, s := range m.Sources {
		i := r.internLocked(s.Source)
		r.agree[i] = s.Agree
		r.total[i] = s.Total
	}
	keys := m.SeqKeys
	if n := r.seen.Size(); len(keys) > n {
		keys = keys[len(keys)-n:]
	}
	for _, k := range keys {
		r.seen.Mark(k)
	}
	r.syncStatsLocked()
	fmt.Fprintf(r.log, "# restored cluster manifest from %s (%d claims, %d barriers, %d sources)\n",
		path, r.claims, r.barriers, len(r.names))
	return nil
}
