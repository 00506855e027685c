package query

import (
	"bytes"
	"fmt"
	"net/url"
	"testing"
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
// and sort of every row.
func FuzzQueryExecute(f *testing.F) {
	for _, seed := range []string{
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
	} {
		f.Add(seed)
	}
	eng := buildEngine(f, 3, 1, 64, goldenClaims(), flipClaims())
	var all Query
	for _, c := range EstimateColumns() {
		all.Cols = append(all.Cols, c.Name)
	}
	full, err := Execute(eng, &all)
	if err != nil {
		f.Fatal(err)
	}
	rel := Materialize(full)
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
