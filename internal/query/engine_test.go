package query

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"slimfast/internal/stream"
)

// goldenClaims builds the engine-backed test stream: 120 objects with
// a strong "t0" majority, a contrarian source s7 ("w" on every third
// object), scattered "alt" dissent, and every tenth object weakly
// supported (two claims only) so a later wave can flip it.
func goldenClaims() [][3]string {
	var out [][3]string
	for o := 0; o < 120; o++ {
		obj := fmt.Sprintf("o%03d", o)
		if o%10 == 0 {
			out = append(out, [3]string{"s0", obj, "t0"}, [3]string{"s1", obj, "t0"})
			continue
		}
		for s := 0; s < 8; s++ {
			val := "t0"
			if s == 7 && o%3 == 0 {
				val = "w"
			} else if (o+s)%13 == 0 {
				val = "alt"
			}
			out = append(out, [3]string{fmt.Sprintf("s%d", s), obj, val})
		}
	}
	return out
}

// flipClaims is the second wave: nine fresh sources flip every weakly
// supported object to "flip".
func flipClaims() [][3]string {
	var out [][3]string
	for o := 0; o < 120; o += 10 {
		obj := fmt.Sprintf("o%03d", o)
		for s := 0; s < 9; s++ {
			out = append(out, [3]string{fmt.Sprintf("e%d", s), obj, "flip"})
		}
	}
	return out
}

// ingest feeds triples with a fixed batching pattern, so epoch
// boundaries land identically across worker counts.
func ingest(e *stream.Engine, triples [][3]string) {
	const chunk = 100
	for lo := 0; lo < len(triples); lo += chunk {
		hi := min(lo+chunk, len(triples))
		batch := make([]stream.Triple, hi-lo)
		for i, tr := range triples[lo:hi] {
			batch[i] = stream.Triple{Source: tr[0], Object: tr[1], Value: tr[2]}
		}
		e.ObserveBatch(batch)
	}
}

func buildEngine(t testing.TB, shards, workers, epochLen int, waves ...[][3]string) *stream.Engine {
	t.Helper()
	opts := stream.DefaultEngineOptions()
	opts.Shards, opts.Workers, opts.EpochLength = shards, workers, epochLen
	e, err := stream.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range waves {
		ingest(e, w)
	}
	return e
}

// queryNDJSON executes a raw query and renders NDJSON — the format
// whose shortest-round-trip floats expose every bit, so byte equality
// here is bit equality of the result.
func queryNDJSON(t *testing.T, e *stream.Engine, raw string) string {
	t.Helper()
	res, err := Execute(e, parseQ(t, raw))
	if err != nil {
		t.Fatalf("Execute(%q): %v", raw, err)
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestEngineQueryDeterministicAcrossWorkers is the worker-count golden
// gate: for a fixed shard count, every query's bytes are identical
// whether one goroutine ingested or four.
func TestEngineQueryDeterministicAcrossWorkers(t *testing.T) {
	const absent = "where=object=nosuch" // the only query with no rows
	queries := []string{
		"",
		"where=confidence<0.95&order=-contested&limit=10",
		"cols=object,value,changed,sources,dissent&where=dissent>0",
		"group=value&agg=count,sum:confidence,avg:confidence,min:confidence,max:confidence",
		"disagree=s0,s7&cols=object,value",
		"where=object=o037",
		absent,
		"order=-changed,object&limit=5&cols=object,changed",
	}
	e1 := buildEngine(t, 4, 1, 64, goldenClaims(), flipClaims())
	e4 := buildEngine(t, 4, 4, 64, goldenClaims(), flipClaims())
	for _, raw := range queries {
		a, b := queryNDJSON(t, e1, raw), queryNDJSON(t, e4, raw)
		if (a == "") != (raw == absent) {
			t.Errorf("query %q returned %d bytes", raw, len(a))
		}
		if a != b {
			t.Errorf("query %q differs between workers 1 and 4:\n%s\nvs\n%s", raw, a, b)
		}
	}
}

// TestEngineQueryAcrossShardCounts checks the shard-count-stable slice
// of the relation (MAP values, counts — float bits legitimately vary
// with the shard fold tree, per the engine's Shards contract).
func TestEngineQueryAcrossShardCounts(t *testing.T) {
	queries := []string{
		"cols=object,value",
		"group=value&agg=count",
		"where=object=o005&cols=object,value",
		"where=object=nosuch&cols=object,value",
		"disagree=s0,s7&cols=object",
	}
	base := buildEngine(t, 1, 2, 64, goldenClaims(), flipClaims())
	for _, shards := range []int{2, 4} {
		e := buildEngine(t, shards, 2, 64, goldenClaims(), flipClaims())
		for _, raw := range queries {
			a, b := queryNDJSON(t, base, raw), queryNDJSON(t, e, raw)
			if a != b {
				t.Errorf("query %q differs between 1 and %d shards:\n%s\nvs\n%s", raw, shards, a, b)
			}
		}
	}
}

// TestFlippedSinceEpoch drives the ROADMAP question "which estimates
// flipped since epoch E": the weak objects flipped by the second wave
// are exactly the rows with changed >= the epoch between the waves.
func TestFlippedSinceEpoch(t *testing.T) {
	e := buildEngine(t, 4, 4, 64, goldenClaims())
	// Advance the epoch clock strictly past every wave-1 changed stamp:
	// 130 one-off claims on a sacrificial object cross at least two
	// epoch boundaries without touching any other object's MAP.
	var pad [][3]string
	for s := 0; s < 130; s++ {
		pad = append(pad, [3]string{fmt.Sprintf("f%d", s), "pad", "t0"})
	}
	ingest(e, pad)
	cutoff := e.CurrentEpoch()
	if cutoff <= 1 {
		t.Fatalf("epoch did not advance during wave 1 (epoch=%d)", cutoff)
	}
	ingest(e, flipClaims())

	var want []string
	for o := 0; o < 120; o += 10 {
		want = append(want, fmt.Sprintf("o%03d,flip", o))
	}
	for name, raw := range map[string]string{
		"changed": fmt.Sprintf("where=changed>=%d&cols=object,value", cutoff),
		"value":   "where=value=flip&cols=object,value",
	} {
		res, err := Execute(e, parseQ(t, raw))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for row := range res.Rows {
			got = append(got, row[0].Str+","+row[1].Str)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s query %q = %v, want %v", name, raw, got, want)
		}
	}
}

// TestDisagreePair checks the disagree filter against the claim rule
// the stream was generated from.
func TestDisagreePair(t *testing.T) {
	e := buildEngine(t, 4, 2, 64, goldenClaims())
	var want []string
	for o := 0; o < 120; o++ {
		if o%10 == 0 {
			continue // weak objects: s7 never claims
		}
		v0, v7 := "t0", "t0"
		if o%13 == 0 {
			v0 = "alt"
		}
		if o%3 == 0 {
			v7 = "w"
		} else if (o+7)%13 == 0 {
			v7 = "alt"
		}
		if v0 != v7 {
			want = append(want, fmt.Sprintf("o%03d", o))
		}
	}
	sort.Strings(want)
	res, err := Execute(e, parseQ(t, "disagree=s0,s7&cols=object"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for row := range res.Rows {
		got = append(got, row[0].Str)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("disagree rows = %v, want %v", got, want)
	}

	// An unknown source cannot disagree with anyone: empty, not an error.
	if out := queryNDJSON(t, e, "disagree=s0,ghost"); out != "" {
		t.Errorf("unknown disagree source returned rows:\n%s", out)
	}
}

// TestClusterStyleMergeMatchesSingleEngine proves the scatter-gather
// contract at the query layer: three single-shard engines holding the
// ShardIndex(·,3) partitions, merged with the relation comparator (row
// queries) or the node-order partial fold (group queries), reproduce a
// single 3-shard engine bit for bit. Epoch refresh is external-length
// so σ stays at the shared prior, as cluster members defer to the
// router's barriers.
func TestClusterStyleMergeMatchesSingleEngine(t *testing.T) {
	all := append(goldenClaims(), flipClaims()...)
	single := buildEngine(t, 3, 2, stream.ExternalEpochLength, all)
	members := make([]*stream.Engine, 3)
	for i := range members {
		var part [][3]string
		for _, tr := range all {
			if stream.ShardIndex(tr[1], 3) == i {
				part = append(part, tr)
			}
		}
		members[i] = buildEngine(t, 1, 2, stream.ExternalEpochLength, part)
	}

	t.Run("rows", func(t *testing.T) {
		// Member projection carries the order and filter columns, as the
		// router widens it; disagree is applied member-side and cleared
		// before the merge.
		memberRaw := "where=confidence<0.999&order=-contested&limit=12&cols=object,value,confidence,contested&disagree=s0,s7"
		var rel *Relation
		for _, m := range members {
			res, err := Execute(m, parseQ(t, memberRaw))
			if err != nil {
				t.Fatal(err)
			}
			part := Materialize(res)
			if rel == nil {
				rel = part
			} else {
				rel.Rows = append(rel.Rows, part.Rows...)
			}
		}
		mergeQ := parseQ(t, strings.Replace(memberRaw, "&disagree=s0,s7", "", 1))
		merged, err := ExecuteRelation(rel, mergeQ)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteNDJSON(&buf, merged); err != nil {
			t.Fatal(err)
		}
		want := queryNDJSON(t, single, memberRaw)
		if want == "" {
			t.Fatal("single-engine query returned no rows")
		}
		if buf.String() != want {
			t.Errorf("merged rows differ from single engine:\n%s\nvs\n%s", buf.String(), want)
		}
	})

	t.Run("group", func(t *testing.T) {
		raw := "group=value&agg=count,sum:confidence,avg:confidence,min:confidence,max:confidence"
		q := parseQ(t, raw)
		parts := make([][][]Val, len(members))
		for i, m := range members {
			res, err := ExecutePartial(m, q)
			if err != nil {
				t.Fatal(err)
			}
			parts[i] = Materialize(res).Rows
		}
		merged, err := MergePartials(q, parts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteNDJSON(&buf, merged); err != nil {
			t.Fatal(err)
		}
		want := queryNDJSON(t, single, raw)
		if buf.String() != want {
			t.Errorf("merged group differs from single engine:\n%s\nvs\n%s", buf.String(), want)
		}
	})
}

func TestPartialAPIErrors(t *testing.T) {
	e := buildEngine(t, 2, 1, 64, goldenClaims())
	plain := parseQ(t, "limit=3")
	if _, err := ExecutePartial(e, plain); err == nil {
		t.Error("ExecutePartial accepted a non-group query")
	}
	if _, err := PartialColumns(plain); err == nil {
		t.Error("PartialColumns accepted a non-group query")
	}
	g := parseQ(t, "group=value&agg=count,sum:confidence")
	if _, err := MergePartials(g, [][][]Val{{{{Kind: KindString, Str: "x"}}}}); err == nil ||
		!strings.Contains(err.Error(), "cells") {
		t.Errorf("ragged partial row not rejected: %v", err)
	}
	if cols, err := PartialColumns(g); err != nil || len(cols) != 4 {
		t.Errorf("PartialColumns = %v, %v; want 4 columns", cols, err)
	}
	// Partial of a group query whose disagree pair is unknown: empty.
	gp := parseQ(t, "group=value&disagree=s0,ghost")
	res, err := ExecutePartial(e, gp)
	if err != nil {
		t.Fatal(err)
	}
	if rows := Materialize(res).Rows; len(rows) != 0 {
		t.Errorf("unknown-pair partial returned %d rows", len(rows))
	}
}
