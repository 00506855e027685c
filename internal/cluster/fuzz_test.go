package cluster

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadManifest feeds arbitrary bytes to the manifest loader, the
// router's only disk-facing start-up parser: it must never panic, and
// every manifest it accepts must survive the router's own encoding —
// re-encoded and reloaded, it is the same value. The corpus is seeded
// with a manifest a router really wrote after two barriers.
func FuzzLoadManifest(f *testing.F) {
	dir := f.TempDir()
	written := filepath.Join(dir, "cluster.json")
	r, _ := fakeCluster(f, 2, func(c *Config) {
		c.CheckpointEpochs = 1
		c.ManifestPath = written
	})
	if _, err := r.Ingest(context.Background(), testClaims(16, 8), "seq-fuzz"); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(written)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":2,"nodes":["a"]}`))
	f.Add([]byte(`{"version":1,"sources":[{"source":"s","agree":1e308,"total":-0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "m.json")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		m, err := LoadManifest(path)
		if err != nil {
			return
		}
		again, err := encodeManifest(m)
		if err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
		if err := os.WriteFile(path, again, 0o600); err != nil {
			t.Fatal(err)
		}
		m2, err := LoadManifest(path)
		if err != nil {
			t.Fatalf("re-encoded manifest does not reload: %v\n%s", err, again)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("manifest changed across re-encode:\n got %+v\nwant %+v", m2, m)
		}
	})
}
