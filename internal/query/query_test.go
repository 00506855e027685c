package query

import (
	"bytes"
	"math"
	"math/rand/v2"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// parseQ parses a raw query string against the estimates schema,
// failing the test on error.
func parseQ(t *testing.T, raw string) *Query {
	t.Helper()
	vals, err := url.ParseQuery(raw)
	if err != nil {
		t.Fatalf("ParseQuery(%q): %v", raw, err)
	}
	q, err := Parse(vals, EstimateColumns())
	if err != nil {
		t.Fatalf("Parse(%q): %v", raw, err)
	}
	return q
}

func TestParseFullGrammar(t *testing.T) {
	q := parseQ(t, "where=confidence<0.9&where=value!=t0&order=-contested,object&limit=10&cols=object,value,confidence")
	if len(q.Where) != 2 || q.Where[0].Col != "confidence" || q.Where[0].Op != "<" || q.Where[0].Num != 0.9 {
		t.Errorf("where parsed wrong: %+v", q.Where)
	}
	if q.Where[1].Str != "t0" || q.Where[1].Op != "!=" {
		t.Errorf("string conjunct parsed wrong: %+v", q.Where[1])
	}
	want := []OrderKey{{Col: "contested", Desc: true}, {Col: "object"}}
	if !reflect.DeepEqual(q.Order, want) {
		t.Errorf("order = %+v, want %+v", q.Order, want)
	}
	if q.Limit != 10 || !reflect.DeepEqual(q.Cols, []string{"object", "value", "confidence"}) {
		t.Errorf("limit/cols parsed wrong: %+v", q)
	}

	g := parseQ(t, "group=value&agg=count,sum:confidence,avg:dissent,min:confidence,max:sources")
	if g.Group != "value" || len(g.Aggs) != 5 || g.Aggs[1].Name() != "sum:confidence" {
		t.Errorf("group parsed wrong: %+v", g)
	}
	if d := parseQ(t, "disagree=s0,s7"); d.DisA != "s0" || d.DisB != "s7" {
		t.Errorf("disagree parsed wrong: %+v", d)
	}
	// group with no explicit agg defaults to count.
	if g2 := parseQ(t, "group=value"); len(g2.Aggs) != 1 || g2.Aggs[0].Fn != "count" {
		t.Errorf("default agg = %+v, want count", g2.Aggs)
	}
}

func TestParseTransportKeysIgnored(t *testing.T) {
	q := parseQ(t, "format=json&partial=1")
	if !reflect.DeepEqual(q, &Query{}) {
		t.Errorf("transport-only query not plain: %+v", q)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ raw, wantSub string }{
		{"bogus=1", "unknown query parameter"},
		{"where=nope<1", `unknown column "nope"`},
		{"where=confidence<abc", "cannot parse"},
		{"where=value<t0", "only = and != apply"},
		{"where=confidence", "want <col><op><value>"},
		{"order=nope", `unknown column "nope"`},
		{"order=-nope", `unknown column "nope"`},
		{"limit=0", "positive integer"},
		{"limit=-3", "positive integer"},
		{"limit=ten", "positive integer"},
		{"cols=object,nope", `unknown column "nope"`},
		{"group=nope", `unknown column "nope"`},
		{"agg=count", "agg requires group"},
		{"group=value&agg=median:confidence", "unknown function"},
		{"group=value&agg=sum", "want count or fn:col"},
		{"group=value&agg=sum:value", "aggregate a numeric column"},
		{"group=value&agg=sum:nope", `unknown column "nope"`},
		{"group=value&cols=object", "drop cols/order"},
		{"group=value&order=value", "drop cols/order"},
		{"disagree=only", "two comma-separated source names"},
		{"disagree=,b", "two comma-separated source names"},
	}
	for _, tc := range cases {
		vals, err := url.ParseQuery(tc.raw)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", tc.raw, err)
		}
		_, err = Parse(vals, EstimateColumns())
		if err == nil {
			t.Errorf("Parse(%q) accepted, want error containing %q", tc.raw, tc.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Parse(%q) error %q, want substring %q", tc.raw, err, tc.wantSub)
		}
	}
}

// TestValuesRoundTrip pins the canonical re-encoding the router uses:
// parsing the re-encoded form must reproduce the query exactly.
func TestValuesRoundTrip(t *testing.T) {
	for _, raw := range []string{
		"where=confidence<0.875&where=value=t0&order=-contested,object&limit=7&cols=object,contested",
		"group=value&agg=count,sum:confidence,avg:confidence",
		"where=changed>=12&disagree=alpha,beta&limit=3",
	} {
		q := parseQ(t, raw)
		back, err := Parse(q.Values(nil), EstimateColumns())
		if err != nil {
			t.Fatalf("reparse of Values(%q): %v", raw, err)
		}
		if !reflect.DeepEqual(q, back) {
			t.Errorf("round trip of %q: %+v != %+v", raw, q, back)
		}
	}
	// extraCols replaces the projection.
	q := parseQ(t, "order=-confidence&limit=2")
	vals := q.Values([]string{"object", "value", "confidence"})
	if got := vals.Get("cols"); got != "object,value,confidence" {
		t.Errorf("extraCols not applied: cols=%q", got)
	}
}

// sourceRelation is a small materialized table for the relation path.
func sourceRelation() *Relation {
	cols := []Column{{"source", KindString}, {"accuracy", KindFloat}, {"cohort", KindString}, {"claims", KindInt}}
	row := func(s string, a float64, c string, n int64) []Val {
		return []Val{
			{Kind: KindString, Str: s},
			{Kind: KindFloat, Num: a},
			{Kind: KindString, Str: c},
			{Kind: KindInt, Int: n},
		}
	}
	return &Relation{Cols: cols, Rows: [][]Val{
		row("a0", 0.91, "alpha", 120),
		row("a1", 0.88, "alpha", 80),
		row("b0", 0.61, "beta", 120),
		row("b1", 0.97, "beta", 40),
		row("b2", 0.61, "beta", 10),
	}}
}

func relCSV(t *testing.T, rel *Relation, raw string) string {
	t.Helper()
	vals, err := url.ParseQuery(raw)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Parse(vals, rel.Cols)
	if err != nil {
		t.Fatalf("Parse(%q): %v", raw, err)
	}
	res, err := ExecuteRelation(rel, q)
	if err != nil {
		t.Fatalf("ExecuteRelation(%q): %v", raw, err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestExecuteRelation(t *testing.T) {
	rel := sourceRelation()
	got := relCSV(t, rel, "where=cohort=beta&order=-accuracy&limit=2&cols=source,accuracy")
	want := "source,accuracy\nb1,0.9700\nb0,0.6100\n"
	if got != want {
		t.Errorf("filtered query:\n%s\nwant:\n%s", got, want)
	}
	// Ties on the order key fall back to the remaining columns left to
	// right, so equal accuracies order by source name.
	got = relCSV(t, rel, "where=accuracy<0.7&cols=source")
	if want = "source\nb0\nb2\n"; got != want {
		t.Errorf("tie-broken query:\n%s\nwant:\n%s", got, want)
	}
	got = relCSV(t, rel, "group=cohort&agg=count,sum:claims,avg:accuracy,min:accuracy,max:accuracy")
	want = "cohort,count,sum:claims,avg:accuracy,min:accuracy,max:accuracy\n" +
		"alpha,2,200,0.8950,0.8800,0.9100\n" +
		"beta,3,170,0.7300,0.6100,0.9700\n"
	if got != want {
		t.Errorf("group query:\n%s\nwant:\n%s", got, want)
	}
}

func TestExecuteRelationErrors(t *testing.T) {
	rel := sourceRelation()
	if _, err := ExecuteRelation(rel, &Query{DisA: "a", DisB: "b"}); err == nil ||
		!strings.Contains(err.Error(), "disagree applies only") {
		t.Errorf("disagree not rejected: %v", err)
	}
	bad := &Relation{Cols: rel.Cols, Rows: [][]Val{{{Kind: KindString, Str: "x"}}}}
	if _, err := ExecuteRelation(bad, &Query{}); err == nil || !strings.Contains(err.Error(), "cells") {
		t.Errorf("ragged row not rejected: %v", err)
	}
	if _, err := ExecuteRelation(rel, &Query{Where: []Cond{{Col: "nope", Op: "=", Str: "x"}}}); err == nil {
		t.Error("unknown where column not rejected")
	}
	if _, err := ExecuteRelation(rel, &Query{Order: []OrderKey{{Col: "nope"}}}); err == nil {
		t.Error("unknown order column not rejected")
	}
	if _, err := ExecuteRelation(rel, &Query{Cols: []string{"nope"}}); err == nil {
		t.Error("unknown projection column not rejected")
	}
	if _, err := ExecuteRelation(rel, &Query{Group: "nope", Aggs: []Agg{{Fn: "count"}}}); err == nil {
		t.Error("unknown group column not rejected")
	}
	if _, err := ExecuteRelation(rel, &Query{Group: "cohort", Aggs: []Agg{{Fn: "sum", Col: "source"}}}); err == nil {
		t.Error("string aggregate column not rejected")
	}
	// A numeric operand against a string column is a compile error even
	// when the Cond was built by hand rather than parsed.
	if _, err := ExecuteRelation(rel, &Query{Where: []Cond{{Col: "source", Op: "=", Num: 1, num: true}}}); err == nil {
		t.Error("type-mismatched conjunct not rejected")
	}
}

func TestNDJSONRoundTripExactBits(t *testing.T) {
	cols := []Column{{"name", KindString}, {"x", KindFloat}, {"n", KindInt}}
	rows := [][]Val{
		{{Kind: KindString, Str: `we"ird, name`}, {Kind: KindFloat, Num: 0.1 + 0.2}, {Kind: KindInt, Int: -42}},
		{{Kind: KindString, Str: ""}, {Kind: KindFloat, Num: 1e-17}, {Kind: KindInt, Int: 1<<62 + 3}},
		{{Kind: KindString, Str: "plain"}, {Kind: KindFloat, Num: -123456.789012345}, {Kind: KindInt, Int: 0}},
	}
	res := &Result{Cols: cols, Rows: func(yield func([]Val) bool) {
		for _, r := range rows {
			if !yield(r) {
				return
			}
		}
	}}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNDJSON(&buf, cols)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, back) {
		t.Errorf("round trip mismatch:\n%v\n%v", rows, back)
	}
}

func TestReadNDJSONErrors(t *testing.T) {
	cols := []Column{{"name", KindString}, {"x", KindFloat}}
	cases := []struct{ body, wantSub string }{
		{`{"name":"a"}`, `missing column "x"`},
		{`{"name":3,"x":1}`, "not a string"},
		{`{"name":"a","x":"oops"}`, "not a number"},
		{`{"name":"a","x":`, "ndjson row 1"},
	}
	for _, tc := range cases {
		_, err := ReadNDJSON(strings.NewReader(tc.body), cols)
		if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("ReadNDJSON(%q) = %v, want substring %q", tc.body, err, tc.wantSub)
		}
	}
	intCols := []Column{{"n", KindInt}}
	if _, err := ReadNDJSON(strings.NewReader(`{"n":1.5}`), intCols); err == nil {
		t.Error("fractional int cell not rejected")
	}
}

func TestWriteFormatDispatch(t *testing.T) {
	res := &Result{Cols: []Column{{"a", KindInt}}, Rows: func(yield func([]Val) bool) {
		yield([]Val{{Kind: KindInt, Int: 1}})
	}}
	var csvBuf, jsonBuf bytes.Buffer
	if err := Write(&csvBuf, res, ""); err != nil || csvBuf.String() != "a\n1\n" {
		t.Errorf("default format: %q, %v", csvBuf.String(), err)
	}
	if err := Write(&jsonBuf, res, "json"); err != nil || jsonBuf.String() != "{\"a\":1}\n" {
		t.Errorf("json format: %q, %v", jsonBuf.String(), err)
	}
	if err := Write(&bytes.Buffer{}, res, "xml"); err == nil {
		t.Error("unknown format not rejected")
	}
}

// writeCounter counts the writes WriteCSV hands its destination.
type writeCounter struct{ writes, bytes int }

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes++
	c.bytes += len(p)
	return len(p), nil
}

// TestWriteCSVQuotedRowsStayBuffered writes an export whose every
// name needs quoting and checks that it reaches the destination in
// buffer-sized writes, as a plain export does, not one write per row.
func TestWriteCSVQuotedRowsStayBuffered(t *testing.T) {
	const n = 2000
	res := &Result{Cols: []Column{{"object", KindString}, {"value", KindString}, {"confidence", KindFloat}},
		Rows: func(yield func([]Val) bool) {
			for i := range n {
				row := []Val{{Kind: KindString, Str: "Last, First " + strconv.Itoa(i)}, {Kind: KindString, Str: `say "hi"`}, {Kind: KindFloat, Num: 0.5}}
				if !yield(row) {
					return
				}
			}
		}}
	var c writeCounter
	if err := WriteCSV(&c, res); err != nil {
		t.Fatal(err)
	}
	if max := c.bytes/4096 + 1; c.writes > max {
		t.Errorf("%d rows, %d bytes in %d writes; want at most %d", n, c.bytes, c.writes, max)
	}
}

// TestFixed4MatchesStrconv sweeps the formatter's hard cases in full:
// every k/20000 (the rounding boundaries of four decimals) with both
// float64 neighbours, the only exact half-way cases k/32 (10000·v has
// a fractional part of exactly 1/2 only when v's lowest set bit is
// 2^-5), and a deterministic spread of random [0, 1] bit patterns. A
// table cell must also cost no allocation.
func TestFixed4MatchesStrconv(t *testing.T) {
	check := func(v float64) {
		if got, want := fixed4(v), strconv.FormatFloat(v, 'f', 4, 64); got != want {
			t.Fatalf("fixed4(%v) [bits %#x] = %q, strconv says %q", v, math.Float64bits(v), got, want)
		}
	}
	for k := 0; k <= 20000; k++ {
		x := float64(k) / 20000
		check(x)
		check(math.Nextafter(x, 0))
		check(math.Nextafter(x, 1))
	}
	for k := 0; k <= 32; k++ {
		check(float64(k) / 32)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	one := math.Float64bits(1)
	for range 10_000 {
		check(math.Float64frombits(rng.Uint64N(one + 1)))
		check(rng.Float64())
	}
	if n := testing.AllocsPerRun(100, func() { _ = fixed4(0.123456) }); n != 0 {
		t.Errorf("fixed4 allocates %v times per call", n)
	}
}
