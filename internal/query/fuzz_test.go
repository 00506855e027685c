package query

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"net/url"
	"slices"
	"strconv"
	"testing"

	"slimfast/internal/stream"
)

// FuzzQueryParse throws arbitrary URL query strings at Parse, the
// parser behind every network-facing read. It must never panic, and
// an accepted query must survive the round trip through Values(nil) —
// the canonical form the router forwards to members — unchanged.
func FuzzQueryParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"where=confidence<0.999&order=-contested&limit=12&cols=object,value,confidence,contested",
		"order=-contested,object&limit=7",
		"where=value=t0&where=value!=w1&cols=object&order=object",
		"disagree=s0,s7&order=object&limit=9",
		"group=value&agg=count,avg:confidence,max:contested",
		"group=value&agg=count&where=sources>=8",
		"where=confidence>=1e-3&where=changed<NaN&format=json&partial=1",
		"where=value=a%3D%3Db&limit=0&agg=sum:object",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		vals, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		q, err := Parse(vals, EstimateColumns())
		if err != nil {
			return
		}
		again, err := Parse(q.Values(nil), EstimateColumns())
		if err != nil {
			t.Fatalf("canonical form %q of accepted %q rejected: %v", q.Values(nil).Encode(), raw, err)
		}
		// %#v compares every field, unexported ones included, and
		// treats a NaN operand as equal to itself.
		if got, want := fmt.Sprintf("%#v", *again), fmt.Sprintf("%#v", *q); got != want {
			t.Fatalf("round trip of %q changed the query:\n got %s\nwant %s", raw, got, want)
		}
	})
}

// FuzzQueryExecute is the executor's differential oracle: any accepted
// row query (no grouping, no disagree pair) run by Execute on a small
// golden engine must render the same NDJSON bytes as ExecuteRelation
// over the engine's fully materialized estimates relation — the index
// point read and the pruned, pushed-down scans against a plain filter
// and sort of every row. The engine adds 300 tie-heavy objects to the
// golden stream so a top-k with a small limit reaches the admission
// gate in every shard; the setup checks that for the gate seeds.
func FuzzQueryExecute(f *testing.F) {
	seeds := []string{
		"where=object=o037",
		"where=object=nosuch&cols=object,value",
		"where=object=",
		"where=object=o037&where=object=o038",
		"where=object=o010&where=value=flip&cols=value,changed",
		"where=object=o037&where=sources>100",
		"where=object!=o037&order=-contested&limit=5",
		"where=confidence<0.999&order=-contested&limit=12&cols=object,value,confidence,contested",
		"order=-changed,object&limit=5&cols=object,changed",
		"",
		"limit=3",
		"where=confidence<0.999&limit=4&cols=object,contested",
	}
	gateSeeds := []string{
		"order=contested&limit=5&cols=object,contested,confidence",
		"where=dissent>0&order=-dissent&limit=3&cols=object,dissent",
	}
	for _, seed := range append(seeds, gateSeeds...) {
		f.Add(seed)
	}
	eng := buildEngine(f, 3, 1, 64, goldenClaims(), flipClaims(), tiedClaims(4, 300))
	var all Query
	for _, c := range EstimateColumns() {
		all.Cols = append(all.Cols, c.Name)
	}
	full, err := Execute(eng, &all)
	if err != nil {
		f.Fatal(err)
	}
	rel := Materialize(full)
	for _, raw := range gateSeeds {
		q := mustParse(raw)
		p, err := compile(q, rel.Cols, nil)
		if err != nil {
			f.Fatal(err)
		}
		perShard := make([]int, eng.NumShards())
		for _, row := range rel.Rows {
			if p.matchVals(row) {
				perShard[stream.ShardIndex(row[colObject].Str, eng.NumShards())]++
			}
		}
		if slices.Min(perShard) < 4*q.Limit+16 {
			f.Fatalf("seed %q matches %v rows per shard: too few to reach the top-k gate", raw, perShard)
		}
	}
	f.Fuzz(func(t *testing.T, raw string) {
		vals, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		q, err := Parse(vals, EstimateColumns())
		if err != nil || q.Group != "" || q.DisA != "" {
			return
		}
		oracle := *q
		if len(oracle.Cols) == 0 {
			oracle.Cols = []string{"object", "value", "confidence"}
		}
		render := func(res *Result, err error) string {
			t.Helper()
			if err != nil {
				t.Fatalf("%q: %v", raw, err)
			}
			var buf bytes.Buffer
			if err := WriteNDJSON(&buf, res); err != nil {
				t.Fatal(err)
			}
			return buf.String()
		}
		got := render(Execute(eng, q))
		want := render(ExecuteRelation(rel, &oracle))
		if got != want {
			t.Fatalf("Execute(%q) diverged from the materialized relation\n got:\n%s\nwant:\n%s", raw, got, want)
		}
	})
}

// FuzzFixed4 pins WriteCSV's float formatter byte for byte to
// strconv.FormatFloat(v, 'f', 4, 64) over raw float64 bit patterns.
// The seeds are the values a scaled-integer rounding gets wrong first:
// the exact half-way cases k/32 (0.03125 rounds down to 0.0312,
// 0.09375 up to 0.0938), the ends of [0, 1], the smallest subnormal,
// and the neighbours of the four-decimal boundaries k/20000.
func FuzzFixed4(f *testing.F) {
	for _, v := range []float64{0, 1, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		1.0 / 32, 3.0 / 32, 5.0 / 32, 31.0 / 32, math.Nextafter(1, 2), math.Inf(1), math.NaN(), -0.5} {
		f.Add(math.Float64bits(v))
	}
	for _, k := range []float64{1, 3, 9999, 10001, 19999} {
		x := k / 20000
		f.Add(math.Float64bits(math.Nextafter(x, 0)))
		f.Add(math.Float64bits(math.Nextafter(x, 1)))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if got, want := fixed4(v), strconv.FormatFloat(v, 'f', 4, 64); got != want {
			t.Fatalf("fixed4(%v) [bits %#x] = %q, strconv says %q", v, bits, got, want)
		}
	})
}

// FuzzWriteCSV pins WriteCSV byte for byte to encoding/csv over a
// header cell, two string cells, an int and a float. The seeds cover
// every case encoding/csv quotes — a comma, a quote, CR, LF, the
// field `\.`, a leading ASCII or Unicode space — and the near misses
// it writes as they are: the empty cell, a trailing space, `\.x`,
// invalid UTF-8 and a space after the first rune.
func FuzzWriteCSV(f *testing.F) {
	for _, c := range []struct {
		header, a, b string
		n            int64
		x            float64
	}{
		{"object", "o1", "t", 3, 0.5},
		{"object", "a,b", "t", 0, 1},
		{"object", `say "hi"`, "", -1, 0.25},
		{"object", "a\rb", "a\nb", 7, math.NaN()},
		{"object", `\.`, `\.x`, 1, math.Inf(-1)},
		{"object", " lead", "trail ", 2, -0.5},
		{"object", "\tlead", "mid dle", 2, 2.5},
		{"object", "\u00a0nbsp", "\u3000ideographic", 9, 1e-9},
		{"object", "\u0085nel", "\xffbad", 1 << 40, 0.99995},
		{"col,1", "o1", "t", 1, 0},
		{" col", "o1", "\"", 1, 0},
	} {
		f.Add(c.header, c.a, c.b, c.n, c.x)
	}
	f.Fuzz(func(t *testing.T, header, a, b string, n int64, x float64) {
		cols := []Column{{header, KindString}, {"v", KindString}, {"n", KindInt}, {"x", KindFloat}}
		rows := [][]Val{
			{{Kind: KindString, Str: a}, {Kind: KindString, Str: b}, {Kind: KindInt, Int: n}, {Kind: KindFloat, Num: x}},
			{{Kind: KindString, Str: b}, {Kind: KindString, Str: "plain"}, {Kind: KindInt, Int: -n}, {Kind: KindFloat, Num: 1 - x}},
			{{Kind: KindString, Str: "plain"}, {Kind: KindString, Str: a}, {Kind: KindInt, Int: n}, {Kind: KindFloat, Num: x}},
		}
		var got bytes.Buffer
		if err := WriteCSV(&got, &Result{Cols: cols, Rows: slices.Values(rows)}); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		cw := csv.NewWriter(&want)
		cw.Write([]string{header, "v", "n", "x"})
		for _, row := range rows {
			cw.Write([]string{row[0].Str, row[1].Str, strconv.FormatInt(row[2].Int, 10), strconv.FormatFloat(row[3].Num, 'f', 4, 64)})
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteCSV wrote\n%q\nencoding/csv writes\n%q", got.Bytes(), want.Bytes())
		}
	})
}
