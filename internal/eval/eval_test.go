package eval

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"slimfast/internal/synth"
)

func quickInstance(t *testing.T) *synth.Instance {
	t.Helper()
	inst, err := synth.Generate(synth.Config{
		Name: "evalq", Sources: 30, Objects: 300, DomainSize: 2,
		Assignment: synth.IIDDensity, Density: 0.2,
		MeanAccuracy: 0.7, AccuracySD: 0.1, MinAccuracy: 0.5, MaxAccuracy: 0.95,
		Features: []synth.FeatureGroup{
			{Name: "f", Cardinality: 5, Informative: true, WeightScale: 1.5},
		},
		EnsureTruthObserved: true,
		Seed:                91,
	})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestSLiMFastVariantsFuse(t *testing.T) {
	inst := quickInstance(t)
	variants := []*SLiMFast{
		NewSLiMFast(), NewSLiMFastERM(), NewSLiMFastEM(),
		NewSourcesERM(), NewSourcesEM(),
	}
	for _, v := range variants {
		tr, err := RunTrial(v, inst, 0.1, 1)
		if err != nil {
			t.Fatalf("%s: %v", v.Name(), err)
		}
		if tr.ObjAccuracy < 0.75 {
			t.Errorf("%s accuracy = %v, want >= 0.75", v.Name(), tr.ObjAccuracy)
		}
		if tr.SourceError < 0 {
			t.Errorf("%s should report probabilistic source accuracies", v.Name())
		}
		if tr.Runtime <= 0 {
			t.Errorf("%s runtime not measured", v.Name())
		}
	}
}

func TestAutoVariantRecordsDecision(t *testing.T) {
	inst := quickInstance(t)
	m := NewSLiMFast()
	tr, err := RunTrial(m, inst, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Decision != "em" && tr.Decision != "erm" {
		t.Errorf("auto variant should record a decision, got %q", tr.Decision)
	}
	if m.LastCompileTime <= 0 || m.LastLearnTime <= 0 {
		t.Error("timing diagnostics not recorded")
	}
}

func TestRunTrialSameSplitAcrossMethods(t *testing.T) {
	// Different methods at the same (frac, seed) must see the same
	// split; sanity check via determinism of a single method.
	inst := quickInstance(t)
	m := NewSourcesERM()
	t1, err := RunTrial(m, inst, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := RunTrial(NewSourcesERM(), inst, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if t1.ObjAccuracy != t2.ObjAccuracy {
		t.Error("same seed should reproduce the trial exactly")
	}
}

func TestRunAveraged(t *testing.T) {
	inst := quickInstance(t)
	tr, err := RunAveraged(NewSourcesERM(), inst, 0.1, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if tr.ObjAccuracy <= 0 || tr.ObjAccuracy > 1 {
		t.Errorf("averaged accuracy out of range: %v", tr.ObjAccuracy)
	}
	if _, err := RunAveraged(NewSourcesERM(), inst, 0.1, nil); err == nil {
		t.Error("no seeds should error")
	}
}

func TestExperimentRegistry(t *testing.T) {
	all := All()
	if len(all) != 16 {
		t.Fatalf("expected 16 experiments, got %d", len(all))
	}
	ids := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment: %+v", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
	}
	if _, ok := ByID("table2"); !ok {
		t.Error("ByID should find table2")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID should reject unknown ids")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

// quickGolden holds every experiment's quick-mode output except the
// wall-clock ones (see timedExperiments), as "==== id ====" sections.
const quickGolden = "testdata/quick.golden"

// timedExperiments print wall-clock runtimes, which no golden can pin;
// they still have to run. No other experiment prints a time.
var timedExperiments = map[string]bool{"table5": true, "table6": true}

// TestAllExperimentsRunQuick runs every registered experiment in quick
// mode and compares its output with testdata/quick.golden (-update
// rewrites it). The subtests run concurrently — experiments are
// independent and the dataset cache is shared safely — so the suite's
// wall-clock scales with cores.
//
// On amd64 the comparison is exact. Elsewhere the compiler may fuse
// x*y+z into one rounding, which can move the last printed digit, so
// numbers there compare within ±0.001 (see sameOutput).
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite in -short mode")
	}
	var want map[string]string
	if !*update {
		b, err := os.ReadFile(quickGolden)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		want = goldenSections(string(b))
		for id := range want {
			if e, ok := ByID(id); !ok || timedExperiments[e.ID] {
				t.Errorf("%s has a section for %q, which no untimed experiment has", quickGolden, id)
			}
		}
	}
	cfg := quickConfig()
	var mu sync.Mutex
	got := map[string]string{}
	// Cleanup runs once every parallel subtest has finished.
	t.Cleanup(func() {
		if !*update || t.Failed() {
			return
		}
		var out strings.Builder
		for _, e := range All() {
			if !timedExperiments[e.ID] {
				fmt.Fprintf(&out, "==== %s ====\n%s", e.ID, got[e.ID])
			}
		}
		if err := os.WriteFile(quickGolden, []byte(out.String()), 0o644); err != nil {
			t.Error(err)
		}
	})
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			if err := e.Run(&buf, cfg); err != nil {
				t.Fatalf("%s failed: %v", e.ID, err)
			}
			if buf.Len() < 20 {
				t.Errorf("%s produced almost no output: %q", e.ID, buf.String())
			}
			mu.Lock()
			got[e.ID] = buf.String()
			mu.Unlock()
			if *update || timedExperiments[e.ID] {
				return
			}
			w, ok := want[e.ID]
			if !ok {
				t.Fatalf("no section for %s in %s", e.ID, quickGolden)
			}
			if !sameOutput(w, buf.String(), runtime.GOARCH == "amd64") {
				t.Errorf("output differs from %s\n--- want\n%s--- got\n%s", quickGolden, w, buf.String())
			}
		})
	}
}

// goldenSections splits quick.golden's text into its per-experiment
// sections.
func goldenSections(s string) map[string]string {
	secs := map[string]string{}
	for _, part := range strings.Split(s, "==== ")[1:] {
		id, body, _ := strings.Cut(part, " ====\n")
		secs[id] = body
	}
	return secs
}

// sameOutput reports whether two renderings match: byte for byte when
// exact, else field by field with numbers within ±0.001.
func sameOutput(want, got string, exact bool) bool {
	if exact || want == got {
		return want == got
	}
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	if len(wl) != len(gl) {
		return false
	}
	for i := range wl {
		wf, gf := strings.Fields(wl[i]), strings.Fields(gl[i])
		if len(wf) != len(gf) {
			return false
		}
		for j := range wf {
			if wf[j] == gf[j] {
				continue
			}
			a, errA := strconv.ParseFloat(wf[j], 64)
			b, errB := strconv.ParseFloat(gf[j], 64)
			if errA != nil || errB != nil || math.Abs(a-b) > 0.001+1e-9 {
				return false
			}
		}
	}
	return true
}

// TestSameOutputTolerance covers the comparison used off amd64.
func TestSameOutputTolerance(t *testing.T) {
	want := "Dataset  Acc\nstocks   0.912\n"
	for _, tc := range []struct {
		got         string
		exact, same bool
	}{
		{want, true, true},
		{"Dataset  Acc\nstocks   0.913\n", true, false},
		{"Dataset  Acc\nstocks   0.913\n", false, true},
		{"Dataset  Acc\nstocks   0.914\n", false, false},
		{"Dataset  Acc\ncrowd    0.912\n", false, false},
		{"Dataset  Acc\nstocks   0.912  x\n", false, false},
	} {
		if got := sameOutput(want, tc.got, tc.exact); got != tc.same {
			t.Errorf("sameOutput(%q, exact=%v) = %v, want %v", tc.got, tc.exact, got, tc.same)
		}
	}
}

// TestShortTierEndToEnd keeps one small end-to-end experiment in the
// -short tier: Table 1 renders from the calibrated datasets, and one
// full SLiMFast trial (compile, auto-decide, learn, infer, score) runs
// on the quick instance. Everything heavier lives behind the full
// tier (TestAllExperimentsRunQuick).
func TestShortTierEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	if err := RunTable1(&buf, quickConfig()); err != nil {
		t.Fatalf("table1: %v", err)
	}
	if !strings.Contains(buf.String(), "# Sources") {
		t.Errorf("table1 output incomplete:\n%s", buf.String())
	}
	inst := quickInstance(t)
	tr, err := RunTrial(NewSLiMFast(), inst, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ObjAccuracy < 0.7 {
		t.Errorf("end-to-end trial accuracy %v too low", tr.ObjAccuracy)
	}
}

func TestTable1MentionsDatasets(t *testing.T) {
	var buf bytes.Buffer
	if err := RunTable1(&buf, quickConfig()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# Sources", "# Observations", "Density"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestMethodRegistries(t *testing.T) {
	if n := len(Table2Methods()); n != 7 {
		t.Errorf("Table 2 should have 7 methods, got %d", n)
	}
	if n := len(Table3Methods()); n != 5 {
		t.Errorf("Table 3 should have 5 methods, got %d", n)
	}
	names := map[string]bool{}
	for _, m := range Table2Methods() {
		names[m.Name()] = true
	}
	for _, want := range []string{"SLiMFast", "S-ERM", "S-EM", "Counts", "ACCU", "CATD", "SSTF"} {
		if !names[want] {
			t.Errorf("Table 2 missing method %q", want)
		}
	}
}

func TestConfigModes(t *testing.T) {
	full := DefaultConfig()
	quick := quickConfig()
	if len(full.TrainFractions()) != 5 {
		t.Error("full config should use the paper's 5 fractions")
	}
	if len(quick.TrainFractions()) >= 5 {
		t.Error("quick config should use fewer fractions")
	}
	if len(full.DatasetNames()) != 4 {
		t.Error("full config should use all 4 datasets")
	}
}

// quickConfig is DefaultConfig shrunk to one seed in Quick mode.
func quickConfig() Config {
	c := DefaultConfig()
	c.Seeds, c.Quick = c.Seeds[:1], true
	return c
}
