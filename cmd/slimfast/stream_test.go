package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// streamCSV renders a small claim stream: two reliable sources and one
// contrarian reporting on numbered objects.
func streamCSV(objects int) string {
	var sb strings.Builder
	sb.WriteString("source,object,value\n")
	for i := 0; i < objects; i++ {
		fmt.Fprintf(&sb, "good1,o%03d,t\n", i)
		fmt.Fprintf(&sb, "good2,o%03d,t\n", i)
		fmt.Fprintf(&sb, "bad,o%03d,w\n", i)
	}
	return sb.String()
}

func TestStreamSubcommandFromStdin(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"stream", "-shards", "2", "-every", "50", "-watch", "o000,missing"},
		&out)
	if err == nil {
		t.Fatal("stream with no stdin data should error") // run wires os.Stdin; empty here
	}

	out.Reset()
	err = runStream([]string{"-shards", "2", "-workers", "2", "-epoch", "64",
		"-every", "100", "-watch", "o000,missing"},
		strings.NewReader(streamCSV(80)), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"# obs=",
		"# watch o000 = t",
		"# watch missing = ?",
		"via 2-shard stream",
		"object,value,confidence",
		"source,accuracy",
		"o000,t,",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestStreamSubcommandFileAndOutputs(t *testing.T) {
	dir := t.TempDir()
	obs := filepath.Join(dir, "obs.csv")
	if err := os.WriteFile(obs, []byte(streamCSV(60)), 0o644); err != nil {
		t.Fatal(err)
	}
	valPath := filepath.Join(dir, "values.csv")
	accPath := filepath.Join(dir, "accs.csv")
	var out bytes.Buffer
	err := runStream([]string{"-obs", obs, "-shards", "2",
		"-values", valPath, "-accuracies", accPath}, strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := os.ReadFile(valPath)
	if err != nil || !strings.Contains(string(vals), "object,value,confidence") {
		t.Errorf("values file wrong: %v", err)
	}
	accs, err := os.ReadFile(accPath)
	if err != nil || !strings.Contains(string(accs), "good1,") {
		t.Errorf("accuracies file wrong: %v", err)
	}
	// The contrarian must score below the corroborated pair.
	var good, bad float64
	for _, line := range strings.Split(string(accs), "\n") {
		var acc float64
		if n, _ := fmt.Sscanf(line, "good1,%f", &acc); n == 1 {
			good = acc
		}
		if n, _ := fmt.Sscanf(line, "bad,%f", &acc); n == 1 {
			bad = acc
		}
	}
	if good <= bad {
		t.Errorf("good1 accuracy %.3f should exceed bad %.3f", good, bad)
	}
}

func TestStreamSubcommandBoundedMemory(t *testing.T) {
	var out bytes.Buffer
	err := runStream([]string{"-shards", "2", "-max-objects", "20", "-epoch", "32"},
		strings.NewReader(streamCSV(200)), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "evicted)") || strings.Contains(s, "(600 observations, 0 evicted)") {
		t.Errorf("bounded-memory run should report evictions:\n%s", s)
	}
}

func TestStreamSubcommandDeterministicAcrossWorkers(t *testing.T) {
	csvIn := streamCSV(150)
	render := func(workers int) string {
		var out bytes.Buffer
		err := runStream([]string{"-shards", "4", "-workers", fmt.Sprint(workers),
			"-epoch", "64", "-batch", "128"}, strings.NewReader(csvIn), &out)
		if err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if a, b := render(1), render(4); a != b {
		t.Error("stream output must be byte-identical across -workers")
	}
}

func TestStreamSubcommandErrors(t *testing.T) {
	var out bytes.Buffer
	if err := runStream(nil, strings.NewReader(""), &out); err == nil {
		t.Error("empty stream should error")
	}
	if err := runStream([]string{"-obs", "/nonexistent/x.csv"}, strings.NewReader(""), &out); err == nil {
		t.Error("missing file should error")
	}
	if err := runStream([]string{"-decay", "7"}, strings.NewReader(streamCSV(2)), &out); err == nil {
		t.Error("invalid decay should error")
	}
	// NaN passes every plain comparison, so it needs its own pin.
	for _, d := range []string{"NaN", "Inf", "-Inf"} {
		err := runStream([]string{"-decay", d}, strings.NewReader(streamCSV(2)), &out)
		if err == nil || !strings.Contains(err.Error(), "Decay must be in (0,1]") {
			t.Errorf("-decay %s: err = %v, want the Decay range error", d, err)
		}
	}
	if err := runStream([]string{"-max-objects", "-2"}, strings.NewReader(streamCSV(2)), &out); err == nil {
		t.Error("negative max-objects should error")
	}
}

// featuresCSV renders the feature table for streamCSV's sources.
func featuresCSV() string {
	return "source,feature\ngood1,tier=reviewed\ngood2,tier=reviewed\nbad,tier=scraped\n"
}

func TestStreamSubcommandFeatures(t *testing.T) {
	dir := t.TempDir()
	featPath := filepath.Join(dir, "features.csv")
	if err := os.WriteFile(featPath, []byte(featuresCSV()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := runStream([]string{"-shards", "2", "-epoch", "64", "-features", featPath, "-decay", "0.97"},
		strings.NewReader(streamCSV(120)), &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "# online learning over 3 featured sources") {
		t.Errorf("missing online banner:\n%s", s)
	}
	if !strings.Contains(s, "source,accuracy,learned,empirical") {
		t.Errorf("missing accuracy decomposition header:\n%s", s)
	}
	// The shared reviewed-tier feature should rate good1 above bad in
	// the learned column.
	var good, bad float64
	for _, line := range strings.Split(s, "\n") {
		var acc, learned, empirical float64
		if n, _ := fmt.Sscanf(line, "good1,%f,%f,%f", &acc, &learned, &empirical); n == 3 {
			good = learned
		}
		if n, _ := fmt.Sscanf(line, "bad,%f,%f,%f", &acc, &learned, &empirical); n == 3 {
			bad = learned
		}
	}
	if good <= bad {
		t.Errorf("learned accuracy good1 %.3f should exceed bad %.3f\n%s", good, bad, s)
	}

	// Byte-determinism across workers holds in feature mode too.
	render := func(workers int) string {
		var o bytes.Buffer
		err := runStream([]string{"-shards", "4", "-workers", fmt.Sprint(workers),
			"-epoch", "64", "-batch", "128", "-features", featPath},
			strings.NewReader(streamCSV(150)), &o)
		if err != nil {
			t.Fatal(err)
		}
		return o.String()
	}
	if a, b := render(1), render(4); a != b {
		t.Error("feature-mode stream output must be byte-identical across -workers")
	}

	// A missing features file is a clean error.
	if err := runStream([]string{"-features", filepath.Join(dir, "nope.csv")},
		strings.NewReader(streamCSV(2)), &out); err == nil {
		t.Error("missing features file should error")
	}
}

func TestStreamSubcommandFeatureFlagEdgeCases(t *testing.T) {
	dir := t.TempDir()
	featPath := filepath.Join(dir, "features.csv")
	if err := os.WriteFile(featPath, []byte(featuresCSV()), 0o644); err != nil {
		t.Fatal(err)
	}
	// -features alongside a -restore that finds a featureless
	// checkpoint must warn, not silently serve agreement-only.
	ckpt := filepath.Join(dir, "plain.ckpt")
	var out bytes.Buffer
	if err := runStream([]string{"-shards", "2", "-checkpoint", ckpt},
		strings.NewReader(streamCSV(30)), &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runStream([]string{"-restore", ckpt, "-features", featPath},
		strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "WARNING: -features ignored") {
		t.Errorf("missing warning when restore drops -features:\n%s", out.String())
	}

	// And a checkpoint that already carries features gets the calmer
	// notice.
	onlineCkpt := filepath.Join(dir, "online.ckpt")
	out.Reset()
	if err := runStream([]string{"-shards", "2", "-features", featPath, "-checkpoint", onlineCkpt},
		strings.NewReader(streamCSV(30)), &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runStream([]string{"-restore", onlineCkpt, "-features", featPath},
		strings.NewReader(""), &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "# note: -features ignored, restored checkpoint already carries its feature table") {
		t.Errorf("missing notice on feature-carrying restore:\n%s", s)
	}
	if !strings.Contains(s, "source,accuracy,learned,empirical") {
		t.Errorf("restored online engine lost the decomposition:\n%s", s)
	}
}
