package data

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"slimfast/internal/randx"
)

// paperExample builds the Figure 1 running example: three articles
// reporting on two gene-disease objects.
func paperExample() (*Dataset, TruthMap) {
	b := NewBuilder("genomics-example")
	b.ObserveNames("Article1", "GIGYF2,Parkinson", "false")
	b.ObserveNames("Article2", "GIGYF2,Parkinson", "false")
	b.ObserveNames("Article3", "GIGYF2,Parkinson", "true")
	b.ObserveNames("Article1", "GBA,Parkinson", "true")
	b.ObserveNames("Article3", "GBA,Parkinson", "true")
	b.SetFeature(b.Source("Article1"), "PubYear=2009")
	b.SetFeature(b.Source("Article1"), "Citations=34")
	b.SetFeature(b.Source("Article2"), "PubYear=2008")
	b.SetFeature(b.Source("Article2"), "Citations=128")
	b.SetFeature(b.Source("Article3"), "Study=GWAS")
	d := b.Freeze()
	truth := TruthMap{}
	truth[0] = 0 // GIGYF2,Parkinson = false
	truth[1] = 1 // GBA,Parkinson = true
	return d, truth
}

func TestBuilderBasicCounts(t *testing.T) {
	d, _ := paperExample()
	if d.NumSources() != 3 {
		t.Errorf("NumSources = %d, want 3", d.NumSources())
	}
	if d.NumObjects() != 2 {
		t.Errorf("NumObjects = %d, want 2", d.NumObjects())
	}
	if d.NumValues() != 2 {
		t.Errorf("NumValues = %d, want 2", d.NumValues())
	}
	if d.NumObservations() != 5 {
		t.Errorf("NumObservations = %d, want 5", d.NumObservations())
	}
	if d.NumFeatures() != 5 {
		t.Errorf("NumFeatures = %d, want 5", d.NumFeatures())
	}
}

func TestBuilderInterningStable(t *testing.T) {
	b := NewBuilder("t")
	s1 := b.Source("a")
	s2 := b.Source("b")
	if s1 != b.Source("a") || s2 != b.Source("b") || s1 == s2 {
		t.Error("source interning broken")
	}
	o := b.Object("x")
	if o != b.Object("x") {
		t.Error("object interning broken")
	}
	v := b.Value("1")
	if v != b.Value("1") {
		t.Error("value interning broken")
	}
}

func TestObserveOverwritesDuplicatePair(t *testing.T) {
	b := NewBuilder("t")
	s, o := b.Source("s"), b.Object("o")
	v1, v2 := b.Value("1"), b.Value("2")
	b.Observe(s, o, v1)
	b.Observe(s, o, v2)
	d := b.Freeze()
	if d.NumObservations() != 1 {
		t.Fatalf("duplicate (s,o) should overwrite, got %d observations", d.NumObservations())
	}
	if d.Observations[0].Value != v2 {
		t.Errorf("value = %d, want %d", d.Observations[0].Value, v2)
	}
}

func TestDomainAndObjectIndex(t *testing.T) {
	d, _ := paperExample()
	// Object 0 = GIGYF2,Parkinson observed by 3 sources with 2 values.
	obs := d.ObjectObservations(0)
	if len(obs) != 3 {
		t.Fatalf("object 0 has %d observations, want 3", len(obs))
	}
	dom := d.Domain(0)
	if len(dom) != 2 {
		t.Errorf("domain(0) = %v, want 2 values", dom)
	}
	// Object 1 observed by 2 sources agreeing on one value.
	if len(d.Domain(1)) != 1 {
		t.Errorf("domain(1) = %v, want 1 value", d.Domain(1))
	}
	// Sorted by source within object.
	for i := 1; i < len(obs); i++ {
		if obs[i].Source < obs[i-1].Source {
			t.Error("object observations not sorted by source")
		}
	}
}

func TestSourceIndex(t *testing.T) {
	d, _ := paperExample()
	if d.SourceObservationCount(0) != 2 { // Article1
		t.Errorf("Article1 count = %d, want 2", d.SourceObservationCount(0))
	}
	if d.SourceObservationCount(1) != 1 { // Article2
		t.Errorf("Article2 count = %d, want 1", d.SourceObservationCount(1))
	}
	for _, idx := range d.SourceObservationIndices(2) {
		if d.Observations[idx].Source != 2 {
			t.Error("source index points at wrong observation")
		}
	}
}

func TestDensityAndAverages(t *testing.T) {
	d, _ := paperExample()
	if got, want := d.Density(), 5.0/6.0; got != want {
		t.Errorf("Density = %v, want %v", got, want)
	}
	if got := d.AvgObservationsPerObject(); got != 2.5 {
		t.Errorf("AvgObsPerObject = %v, want 2.5", got)
	}
	if got := d.AvgObservationsPerSource(); got != 5.0/3.0 {
		t.Errorf("AvgObsPerSource = %v", got)
	}
}

func TestTrueSourceAccuracies(t *testing.T) {
	d, truth := paperExample()
	acc := d.TrueSourceAccuracies(truth)
	// Article1: both observations correct -> 1.0
	// Article2: its single observation (false for GIGYF2) is correct -> 1.0
	// Article3: says true for GIGYF2 (wrong) and true for GBA (right) -> 0.5
	want := []float64{1, 1, 0.5}
	for s, w := range want {
		if acc[s] != w {
			t.Errorf("acc[%d] = %v, want %v", s, acc[s], w)
		}
	}
}

func TestTrueSourceAccuraciesUnlabeledSourceGetsMean(t *testing.T) {
	b := NewBuilder("t")
	b.ObserveNames("s1", "o1", "a")
	b.ObserveNames("s2", "o2", "a") // o2 unlabeled
	d := b.Freeze()
	truth := TruthMap{0: 0}
	acc := d.TrueSourceAccuracies(truth)
	if acc[0] != 1 {
		t.Errorf("acc[s1] = %v, want 1", acc[0])
	}
	if acc[1] != 1 { // mean of labeled sources = 1
		t.Errorf("acc[s2] = %v, want mean 1", acc[1])
	}
}

func TestAvgSourceAccuracy(t *testing.T) {
	d, truth := paperExample()
	got := d.AvgSourceAccuracy(truth)
	want := (1.0 + 1.0 + 0.5) / 3
	if got != want {
		t.Errorf("AvgSourceAccuracy = %v, want %v", got, want)
	}
	if d.AvgSourceAccuracy(TruthMap{}) != 0.5 {
		t.Error("no labels should give 0.5 default")
	}
}

func TestValidate(t *testing.T) {
	d, _ := paperExample()
	if err := d.Validate(); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
	// Corrupt a copy.
	bad := *d
	bad.Observations = append([]Observation{}, d.Observations...)
	bad.Observations[0].Source = 99
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range source should fail validation")
	}
}

func TestUsingUnfrozenPanics(t *testing.T) {
	b := NewBuilder("t")
	b.ObserveNames("s", "o", "v")
	d := b.ds
	defer func() {
		if recover() == nil {
			t.Error("access before Freeze should panic")
		}
	}()
	d.ObjectObservations(0)
}

func TestComputeStats(t *testing.T) {
	d, truth := paperExample()
	st := ComputeStats(d, truth)
	if st.Sources != 3 || st.Objects != 2 || st.Observations != 5 {
		t.Errorf("stats wrong: %+v", st)
	}
	if st.GroundTruthAvail != 1 {
		t.Errorf("GroundTruthAvail = %v, want 1", st.GroundTruthAvail)
	}
	stNoGold := ComputeStats(d, nil)
	if stNoGold.AvgSrcAccuracy != -1 {
		t.Error("AvgSrcAccuracy should be -1 without gold")
	}
}

func TestSplitFractions(t *testing.T) {
	gold := TruthMap{}
	for i := 0; i < 1000; i++ {
		gold[ObjectID(i)] = ValueID(i % 3)
	}
	rng := randx.New(42)
	train, test := Split(gold, 0.2, rng)
	if len(train) != 200 {
		t.Errorf("train size = %d, want 200", len(train))
	}
	if len(test) != 800 {
		t.Errorf("test size = %d, want 800", len(test))
	}
	// Disjoint and label-preserving.
	for o, v := range train {
		if _, ok := test[o]; ok {
			t.Fatal("train and test overlap")
		}
		if gold[o] != v {
			t.Fatal("split changed a label")
		}
	}
}

func TestSplitTinyFractionKeepsOne(t *testing.T) {
	gold := TruthMap{0: 0, 1: 0, 2: 0}
	train, _ := Split(gold, 0.001, randx.New(1))
	if len(train) != 1 {
		t.Errorf("train size = %d, want 1 (minimum)", len(train))
	}
	train, test := Split(gold, 0, randx.New(1))
	if len(train) != 0 || len(test) != 3 {
		t.Error("trainFrac=0 should give empty train")
	}
}

func TestSplitDeterministic(t *testing.T) {
	gold := TruthMap{}
	for i := 0; i < 100; i++ {
		gold[ObjectID(i)] = 0
	}
	t1, _ := Split(gold, 0.3, randx.New(7))
	t2, _ := Split(gold, 0.3, randx.New(7))
	if len(t1) != len(t2) {
		t.Fatal("sizes differ")
	}
	for o := range t1 {
		if _, ok := t2[o]; !ok {
			t.Fatal("same seed should give same split")
		}
	}
}

func TestRestrictSources(t *testing.T) {
	d, _ := paperExample()
	sub, mapping, err := RestrictSources(d, []SourceID{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumSources() != 2 {
		t.Fatalf("restricted sources = %d, want 2", sub.NumSources())
	}
	if len(mapping) != 2 || mapping[0] != 0 || mapping[1] != 2 {
		t.Errorf("mapping = %v, want [0 2]", mapping)
	}
	// Object and value id spaces preserved.
	if sub.NumObjects() != d.NumObjects() || sub.NumValues() != d.NumValues() {
		t.Error("object/value spaces must be preserved")
	}
	// Article2's single observation dropped: 5 - 1 = 4.
	if sub.NumObservations() != 4 {
		t.Errorf("observations = %d, want 4", sub.NumObservations())
	}
	// Features carried over.
	if sub.NumFeatures() != d.NumFeatures() {
		t.Errorf("features = %d, want %d", sub.NumFeatures(), d.NumFeatures())
	}
	if err := sub.Validate(); err != nil {
		t.Errorf("restricted dataset invalid: %v", err)
	}
	if _, _, err := RestrictSources(d, []SourceID{99}); err == nil {
		t.Error("out-of-range source should error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d, truth := paperExample()
	var obsBuf, featBuf, truthBuf bytes.Buffer
	if err := WriteObservationsCSV(&obsBuf, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteFeaturesCSV(&featBuf, d); err != nil {
		t.Fatal(err)
	}
	if err := WriteTruthCSV(&truthBuf, d, truth); err != nil {
		t.Fatal(err)
	}

	b := NewBuilder("roundtrip")
	if err := ReadObservationsCSV(&obsBuf, b); err != nil {
		t.Fatal(err)
	}
	if err := ReadFeaturesCSV(&featBuf, b); err != nil {
		t.Fatal(err)
	}
	names, err := ReadTruthCSV(&truthBuf)
	if err != nil {
		t.Fatal(err)
	}
	d2 := b.Freeze()
	if d2.NumObservations() != d.NumObservations() ||
		d2.NumSources() != d.NumSources() ||
		d2.NumFeatures() != d.NumFeatures() {
		t.Errorf("round trip lost data: %d obs, %d src, %d feat",
			d2.NumObservations(), d2.NumSources(), d2.NumFeatures())
	}
	tm, err := TruthFromNames(d2, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(tm) != len(truth) {
		t.Errorf("truth size = %d, want %d", len(tm), len(truth))
	}
}

func TestJSONRoundTrip(t *testing.T) {
	d, truth := paperExample()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, d, truth); err != nil {
		t.Fatal(err)
	}
	d2, tm, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Name != d.Name {
		t.Errorf("name = %q, want %q", d2.Name, d.Name)
	}
	if d2.NumObservations() != d.NumObservations() {
		t.Errorf("observations = %d, want %d", d2.NumObservations(), d.NumObservations())
	}
	if len(tm) != len(truth) {
		t.Errorf("truth = %d entries, want %d", len(tm), len(truth))
	}
	// Feature assignments survive.
	for s := range d.SourceFeatures {
		if len(d2.SourceFeatures[s]) != len(d.SourceFeatures[s]) {
			t.Errorf("source %d features lost", s)
		}
	}
}

func TestReadJSONRejectsCorrupt(t *testing.T) {
	cases := []string{
		`not json`,
		`{"name":"x","sources":["s"],"objects":["o"],"values":["v"],"observations":[[5,0,0]]}`,
		`{"name":"x","sources":["s"],"objects":["o"],"values":["v"],"observations":[],"source_features":[[9]],"features":[]}`,
	}
	for i, c := range cases {
		if _, _, err := ReadJSON(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: corrupt JSON accepted", i)
		}
	}
}

func TestTruthFromNamesUnknownValue(t *testing.T) {
	d, _ := paperExample()
	if _, err := TruthFromNames(d, map[string]string{"GBA,Parkinson": "maybe"}); err == nil {
		t.Error("unknown value name should error")
	}
	// Unknown object names are skipped, not errors.
	tm, err := TruthFromNames(d, map[string]string{"nope": "true"})
	if err != nil || len(tm) != 0 {
		t.Errorf("unknown object should be skipped, got %v %v", tm, err)
	}
}

func TestStreamObservationsCSV(t *testing.T) {
	in := "source,object,value\ns1,o1,a\ns2,o1,b\ns1,o2,a\n"
	var got [][3]string
	err := StreamObservationsCSV(strings.NewReader(in), func(s, o, v string) error {
		got = append(got, [3]string{s, o, v})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][3]string{{"s1", "o1", "a"}, {"s2", "o1", "b"}, {"s1", "o2", "a"}}
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %v, want %v", i, got[i], want[i])
		}
	}

	// fn errors stop the scan and propagate.
	stop := errors.New("stop")
	n := 0
	err = StreamObservationsCSV(strings.NewReader(in), func(s, o, v string) error {
		n++
		return stop
	})
	if !errors.Is(err, stop) || n != 1 {
		t.Errorf("fn error not propagated: err=%v after %d rows", err, n)
	}

	// Malformed rows error out.
	if err := StreamObservationsCSV(strings.NewReader("source,object,value\nonly,two\n"), func(s, o, v string) error {
		return nil
	}); err == nil {
		t.Error("short row should error")
	}
}

// TestStreamObservationsCSVReportsRowNumbers guards the error-position
// contract: both malformed rows and fn rejections must name the
// 1-based row (header included) where the scan stopped.
func TestStreamObservationsCSVReportsRowNumbers(t *testing.T) {
	// Row 3 is short (row 1 is the header).
	in := "source,object,value\ns1,o1,a\nonly,two\ns2,o2,b\n"
	err := StreamObservationsCSV(strings.NewReader(in), func(s, o, v string) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "row 3") {
		t.Errorf("malformed-row error lost its position: %v", err)
	}

	// fn rejections carry the row too, without losing the cause.
	bad := errors.New("bad claim")
	err = StreamObservationsCSV(strings.NewReader("source,object,value\ns1,o1,a\ns2,o2,b\n"), func(s, o, v string) error {
		if o == "o2" {
			return bad
		}
		return nil
	})
	if !errors.Is(err, bad) || !strings.Contains(err.Error(), "row 3") {
		t.Errorf("fn error lost its position or identity: %v", err)
	}
}

// TestReadObservationsCSVReportsRowNumber: the batch reader names the
// 1-based row (header included) of a malformed record, as the stream
// reader does, and keeps the rows before it.
func TestReadObservationsCSVReportsRowNumber(t *testing.T) {
	b := NewBuilder("rows")
	in := "source,object,value\ns1,o1,a\ns2,o1,b\nonly,two\ns3,o2,c\n"
	err := ReadObservationsCSV(strings.NewReader(in), b)
	if err == nil || !strings.Contains(err.Error(), "observations csv row 4:") {
		t.Errorf("malformed-row error lost its position: %v", err)
	}
	if n := b.Freeze().NumObservations(); n != 2 {
		t.Errorf("%d observations read before the bad row, want 2", n)
	}
}

func TestReadSourceFeaturesCSV(t *testing.T) {
	in := "source,feature\ns1,f=a\ns1,f=b\ns1,f=a\ns2,f=b\n"
	got, err := ReadSourceFeaturesCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("sources = %d, want 2", len(got))
	}
	if len(got["s1"]) != 2 || got["s1"][0] != "f=a" || got["s1"][1] != "f=b" {
		t.Errorf("s1 labels = %v, want deduped first-seen order", got["s1"])
	}
	if len(got["s2"]) != 1 {
		t.Errorf("s2 labels = %v", got["s2"])
	}
	// Headerless input works too (no "source" sentinel row).
	got, err = ReadSourceFeaturesCSV(strings.NewReader("a,x\nb,y\n"))
	if err != nil || len(got) != 2 {
		t.Errorf("headerless parse: %v / %v", got, err)
	}
	// Failures carry row numbers.
	if _, err := ReadSourceFeaturesCSV(strings.NewReader("source,feature\ns1,f,extra\n")); err == nil || !strings.Contains(err.Error(), "row 2") {
		t.Errorf("malformed row error = %v, want row number", err)
	}
	if _, err := ReadSourceFeaturesCSV(strings.NewReader("source,feature\n,f\n")); err == nil || !strings.Contains(err.Error(), "row 2") {
		t.Errorf("empty source error = %v, want row number", err)
	}
}
