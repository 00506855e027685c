package stream

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// marshalReply is the member's drain and mass reply as encoding/json
// writes it: the oracle AppendEpochReply must match byte for byte.
func marshalReply(tag string, stats []SourceStat) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(map[string]any{"tag": tag, "sources": stats})
	return buf.Bytes(), err
}

// marshalClaim is the line json.Encoder writes for one triple.
func marshalClaim(tr Triple) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(tr); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// plain reports whether s survives encoding/json unescaped and is a
// string the Cut functions read: printable ASCII without a quote, a
// backslash or an HTML-escaped byte.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

func finite(fs ...float64) bool {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return false
		}
	}
	return true
}

// sameFloat compares bit patterns, so -0 and 0 differ.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkAppend holds the Append functions to encoding/json on one
// request, one reply and the claims built from the same strings: the
// same bytes, or a refusal where encoding/json refuses.
func checkAppend(t *testing.T, req EpochRequest, stats []SourceStat) {
	t.Helper()
	want, werr := json.Marshal(req)
	got, gerr := AppendEpochRequest([]byte("prefix"), req)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("AppendEpochRequest(%+v) error %v, json.Marshal error %v", req, gerr, werr)
	}
	if werr == nil && !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("AppendEpochRequest(%+v)\n got %q\nwant %q", req, got[len("prefix"):], want)
	}
	want, werr = marshalReply(req.Tag, stats)
	got, gerr = AppendEpochReply(nil, req.Tag, stats)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("AppendEpochReply(%+v) error %v, json.Encoder error %v", stats, gerr, werr)
	}
	if werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("AppendEpochReply(%+v)\n got %q\nwant %q", stats, got, want)
	}
	for _, st := range stats {
		tr := Triple{Source: st.Source, Object: req.Tag, Value: st.Source + req.Tag}
		if got, want := AppendClaim(nil, tr), marshalClaim(tr); !bytes.Equal(got, want) {
			t.Fatalf("AppendClaim(%q)\n got %q\nwant %q", tr, got, want)
		}
	}
}

// checkCutRequest holds CutEpochRequest to json.Unmarshal on b: when
// it accepts, encoding/json must decode b to the very same request.
func checkCutRequest(t *testing.T, b []byte) bool {
	t.Helper()
	got, ok := CutEpochRequest(b)
	if !ok {
		return false
	}
	var want EpochRequest
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("CutEpochRequest(%q) accepted what json.Unmarshal refuses: %v", b, err)
	}
	same := got.Tag == want.Tag && got.Rescore == want.Rescore &&
		len(got.Accuracies) == len(want.Accuracies) && (got.Accuracies == nil) == (want.Accuracies == nil)
	for i := 0; same && i < len(got.Accuracies); i++ {
		g, w := got.Accuracies[i], want.Accuracies[i]
		same = g.Source == w.Source && sameFloat(g.Accuracy, w.Accuracy)
	}
	if !same {
		t.Fatalf("CutEpochRequest(%q) = %+v, json.Unmarshal %+v", b, got, want)
	}
	return true
}

// checkCutReply holds CutEpochReply to json.Unmarshal on b.
func checkCutReply(t *testing.T, b []byte) bool {
	t.Helper()
	rows, tag, ok := CutEpochReply(b, nil)
	if !ok {
		return false
	}
	var want struct {
		Tag     string       `json:"tag"`
		Sources []SourceStat `json:"sources"`
	}
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatalf("CutEpochReply(%q) accepted what json.Unmarshal refuses: %v", b, err)
	}
	same := tag == want.Tag && len(rows) == len(want.Sources) && want.Sources != nil
	for i := 0; same && i < len(rows); i++ {
		g, w := rows[i], want.Sources[i]
		same = string(g.Source) == w.Source && sameFloat(g.Agree, w.Agree) &&
			sameFloat(g.Total, w.Total) && g.Observations == w.Observations
	}
	if !same {
		t.Fatalf("CutEpochReply(%q) = %q %+v, json.Unmarshal %+v", b, tag, rows, want)
	}
	return true
}

// checkRoundTrip appends req and stats, then reads both back: the Cut
// functions must agree with encoding/json and, when every string is
// plain and every number finite, must take the fast path.
func checkRoundTrip(t *testing.T, req EpochRequest, stats []SourceStat) {
	t.Helper()
	checkAppend(t, req, stats)
	fast := plain(req.Tag)
	for _, a := range req.Accuracies {
		fast = fast && plain(a.Source) && finite(a.Accuracy)
	}
	if b, err := AppendEpochRequest(nil, req); err == nil {
		if took := checkCutRequest(t, b); fast && !took {
			t.Fatalf("CutEpochRequest declined canonical %q", b)
		}
	}
	fast = plain(req.Tag) && stats != nil
	for _, st := range stats {
		fast = fast && plain(st.Source) && finite(st.Agree, st.Total)
	}
	if b, err := AppendEpochReply(nil, req.Tag, stats); err == nil {
		if took := checkCutReply(t, b); fast && !took {
			t.Fatalf("CutEpochReply declined canonical %q", b)
		}
	}
}

// edgeFloats are the numbers whose encoding/json form is easy to get
// wrong: the 1e-6 and 1e21 format switches, subnormals, -0, the
// extremes and the values encoding/json refuses.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, 2.5e-7, 1e-6, math.Nextafter(1e-6, 0), 9.999999e-7,
	1e-7, 1.5e-9, 1e-10, 1e-100, 1e20, math.Nextafter(1e21, 0), 1e21, 1.5e21, 1e100,
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, math.MaxFloat64, -math.MaxFloat64,
	123456789.125, 0.1 + 0.2, -4.9e-324, math.NaN(), math.Inf(1), math.Inf(-1),
}

// edgeNames are the strings whose encoding/json form is easy to get
// wrong: HTML-escaped bytes, quotes, control bytes, non-ASCII, invalid
// UTF-8 and the JavaScript line separators.
var edgeNames = []string{
	"", "s0", "source with spaces", `<b>&amp;</b>`, `say "hi"`, `back\slash`, "tab\there",
	"nl\nbs\bff\fcr\r", "\x00\x01\x1f\x7f", "é", "日本語", "\xff", "a\xc3", " x ",
	"\U0001F600", "{}[]:,", "/slash/", "~`!@#$%^*()_+-=",
}

// TestEpochCodecMatchesEncodingJSON is the differential test over
// generated requests and replies: every edge number and name, then
// 20 000 random combinations of them and of random bits.
func TestEpochCodecMatchesEncodingJSON(t *testing.T) {
	for _, f := range edgeFloats {
		for _, name := range edgeNames {
			checkRoundTrip(t,
				EpochRequest{Tag: name, Accuracies: []SourceAccuracy{{Source: name, Accuracy: f}}, Rescore: f > 0},
				[]SourceStat{{Source: name, Agree: f, Total: -f, Observations: int64(len(name)) - 3}})
		}
	}
	rng := rand.New(rand.NewSource(1))
	pickFloat := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return edgeFloats[rng.Intn(len(edgeFloats))]
		case 1:
			return math.Float64frombits(rng.Uint64())
		case 2:
			return rng.Float64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		return float64(rng.Intn(2000)) / 8
	}
	pickName := func() string {
		if rng.Intn(3) == 0 {
			return edgeNames[rng.Intn(len(edgeNames))]
		}
		b := make([]byte, rng.Intn(12))
		for i := range b {
			b[i] = byte(0x20 + rng.Intn(0x5f))
		}
		return string(b)
	}
	for i := 0; i < 20000; i++ {
		req := EpochRequest{Tag: pickName(), Rescore: rng.Intn(2) == 0}
		var stats []SourceStat
		if rng.Intn(8) > 0 {
			stats = []SourceStat{}
		}
		for n := rng.Intn(4); n > 0; n-- {
			req.Accuracies = append(req.Accuracies, SourceAccuracy{Source: pickName(), Accuracy: pickFloat()})
			stats = append(stats, SourceStat{Source: pickName(), Agree: pickFloat(), Total: pickFloat(), Observations: rng.Int63n(5) - 1})
		}
		checkRoundTrip(t, req, stats)
	}
}

// TestCutEpochDeclines lists bodies the Cut functions must leave to
// encoding/json: each is either invalid JSON or decodes through a rule
// (whitespace, key order, escapes, number forms, null, trailing data)
// the fast path does not implement.
func TestCutEpochDeclines(t *testing.T) {
	for _, in := range []string{
		``, `{}`, `null`, `{"tag":"e1"`, `{"tag":"e1"} x`, `{"tag":"e1"}}`, `{ "tag":"e1"}`,
		`{"Tag":"e1"}`, `{"tag":1}`, `{"tag":"e1","rescore":false}`,
		`{"tag":"e1","accuracies":[]}`, `{"tag":"e1","accuracies":null}`,
		`{"tag":"e1","accuracies":[{"source":"s","accuracy":01}]}`,
		`{"tag":"e1","accuracies":[{"source":"s","accuracy":.5}]}`,
		`{"tag":"e1","accuracies":[{"source":"s","accuracy":1.}]}`,
		`{"tag":"e1","accuracies":[{"source":"s","accuracy":1e}]}`,
		`{"tag":"e1","accuracies":[{"source":"s","accuracy":+1}]}`,
		`{"tag":"e1","accuracies":[{"source":"s","accuracy":1e400}]}`,
		`{"tag":"e1","accuracies":[{"source":"s","accuracy":"0.5"}]}`,
		`{"tag":"e1","accuracies":[{"source":"s","accuracy":0.5},]}`,
		`{"rescore":true,"tag":"e1"}`,
	} {
		if req, ok := CutEpochRequest([]byte(in)); ok {
			t.Errorf("CutEpochRequest(%q) accepted %+v", in, req)
		}
	}
	for _, in := range []string{
		``, `{}`, `{"sources":null,"tag":"e1"}`, `{"tag":"e1","sources":[]}`, `{"sources":[]}`,
		`{"sources":[],"tag":"e1"} x`, `{"sources":[] ,"tag":"e1"}`,
		`{"sources":[{"source":"s","agree":1,"total":2,"observations":1.0}],"tag":"e1"}`,
		`{"sources":[{"source":"s","agree":1,"total":2,"observations":1e2}],"tag":"e1"}`,
		`{"sources":[{"source":"s","agree":1,"total":2,"observations":9223372036854775808}],"tag":"e1"}`,
		`{"sources":[{"source":"s","agree":1,"total":2,"observations":-}],"tag":"e1"}`,
		`{"sources":[{"source":"s","agree":-01,"total":2}],"tag":"e1"}`,
		`{"sources":[{"source":"s","total":2,"agree":1}],"tag":"e1"}`,
		`{"sources":[{"source":"s\"","agree":1,"total":2}],"tag":"e1"}`,
		`{"sources":[{"source":"s","agree":1,"total":2}{"source":"t","agree":1,"total":2}],"tag":"e1"}`,
		`{"sources":[{"source":"s","agree":1,"total":2},],"tag":"e1"}`,
		`{"sources":[{"source":"s","agree":1,"total":-1e999}],"tag":"e1"}`,
		"{\"sources\":[{\"source\":\"\xc3\xa9\",\"agree\":1,\"total\":2}],\"tag\":\"e1\"}",
	} {
		if rows, tag, ok := CutEpochReply([]byte(in), nil); ok {
			t.Errorf("CutEpochReply(%q) accepted %q %+v", in, tag, rows)
		}
	}
}

// TestDecodeEpochFallsBack: bodies the fast path declines still decode
// exactly as encoding/json decodes them, errors included.
func TestDecodeEpochFallsBack(t *testing.T) {
	req, err := DecodeEpochRequest([]byte(` {"accuracies":[{"source":"<s>","accuracy":5e-1}], "tag":"e1"}`))
	if err != nil || req.Tag != "e1" || len(req.Accuracies) != 1 || req.Accuracies[0] != (SourceAccuracy{"<s>", 0.5}) {
		t.Fatalf("DecodeEpochRequest = %+v, %v", req, err)
	}
	if _, err := DecodeEpochRequest([]byte(`{"tag":"x"} trailing`)); err == nil {
		t.Fatal("DecodeEpochRequest accepted trailing data")
	}
	rows, err := DecodeEpochReply([]byte(`{"tag":"e1","sources":[{"source":"sé","total":2,"agree":1,"observations":3}]}`), []StatRow{{}})
	if err != nil || len(rows) != 2 || string(rows[1].Source) != "sé" || rows[1].Agree != 1 || rows[1].Total != 2 || rows[1].Observations != 3 {
		t.Fatalf("DecodeEpochReply = %+v, %v", rows, err)
	}
	if rows, err := DecodeEpochReply([]byte(`{"sources":[{"source":"s","agree":"x"}]}`), []StatRow{{}}); err == nil || len(rows) != 1 {
		t.Fatalf("DecodeEpochReply of a bad reply = %+v, %v; want the prefix and an error", rows, err)
	}
}

// FuzzEpochCodec is the differential fuzz target: arbitrary strings,
// numbers and raw bodies through the Append and Cut functions, held to
// encoding/json byte for byte and value for value.
func FuzzEpochCodec(f *testing.F) {
	f.Add("e1", "s0", 1.5, 2.0, int64(3), 0.75, false, []byte(`{"tag":"e1"}`))
	f.Add("r1.s0", "<&>", 1e-7, 1e21, int64(0), 0.5, true,
		[]byte(`{"tag":"r1.s0","accuracies":[{"source":"a","accuracy":0.6},{"source":"b","accuracy":1e-7}],"rescore":true}`))
	f.Add("é ", "\xff\"\\", math.Copysign(0, -1), 4.9e-324, int64(-7), 1e-6, false,
		[]byte("{\"sources\":[{\"source\":\"s\",\"agree\":-0,\"total\":2.5E+3,\"observations\":-7}],\"tag\":\"e2\"}\n"))
	f.Add("t", "n", math.NaN(), math.Inf(1), int64(1), math.Inf(-1), false, []byte(`{"sources":[],"tag":"t"} `))
	f.Add("", "", 9.999999999999999e20, 1e-300, int64(math.MaxInt64), 1.0, true,
		[]byte(`{"sources":[{"source":"s","agree":1,"total":1e-400}],"tag":""}`))
	f.Fuzz(func(t *testing.T, tag, name string, agree, total float64, obs int64, acc float64, rescore bool, raw []byte) {
		checkRoundTrip(t,
			EpochRequest{Tag: tag, Accuracies: []SourceAccuracy{{Source: name, Accuracy: acc}, {Source: tag, Accuracy: agree}}, Rescore: rescore},
			[]SourceStat{{Source: name, Agree: agree, Total: total, Observations: obs}, {Source: tag, Agree: acc, Total: agree}})
		checkCutRequest(t, raw)
		checkCutReply(t, raw)
	})
}

// TestCutEpochReplyAllocs: the router merges a reply's rows without a
// string per row, so cutting a 400-row reply into a reused slice
// allocates only the tag.
func TestCutEpochReplyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	stats := make([]SourceStat, 400)
	for i := range stats {
		stats[i] = SourceStat{Source: "s" + strconv.Itoa(i), Agree: 1.25 * float64(i), Total: 3.5 + float64(i), Observations: int64(i)}
	}
	b, err := AppendEpochReply(nil, "e123", stats)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]StatRow, 0, len(stats))
	if n := testing.AllocsPerRun(20, func() {
		var ok bool
		if rows, _, ok = CutEpochReply(b, rows[:0]); !ok || len(rows) != len(stats) {
			t.Fatalf("CutEpochReply declined its own reply or lost rows (%d)", len(rows))
		}
	}); n > 1 {
		t.Errorf("CutEpochReply of %d rows: %v allocs, want at most 1 (the tag)", len(stats), n)
	}
}
