package query

import (
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
