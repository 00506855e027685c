package query

import (
	"fmt"
	"io"
	"net/url"
	"runtime"
	"sync"
	"testing"

	"slimfast/internal/stream"
)

// benchClaims builds a large uncontested stream: 12k objects, three
// sources each — big enough that materializing the estimate set costs
// real allocation, which a pushed-down selective query must not pay.
func benchClaims() [][3]string {
	out := make([][3]string, 0, 3*12000)
	for o := 0; o < 12000; o++ {
		obj := fmt.Sprintf("b%05d", o)
		for s := 0; s < 3; s++ {
			val := "t"
			if s == 2 && o%7 == 0 {
				val = "w"
			}
			out = append(out, [3]string{fmt.Sprintf("s%d", s), obj, val})
		}
	}
	return out
}

var benchTop10 = mustParse("order=-contested&limit=10")

func mustParse(raw string) *Query {
	vals, err := url.ParseQuery(raw)
	if err != nil {
		panic(err)
	}
	q, err := Parse(vals, EstimateColumns())
	if err != nil {
		panic(err)
	}
	return q
}

func runTop10(e *stream.Engine) int {
	res, err := Execute(e, benchTop10)
	if err != nil {
		panic(err)
	}
	n := 0
	for range res.Rows {
		n++
	}
	return n
}

// materializeAll is the materializing baseline: the plain estimates
// query with every row copied out.
func materializeAll(e *stream.Engine) *Relation {
	res, err := Execute(e, &Query{})
	if err != nil {
		panic(err)
	}
	return Materialize(res)
}

// TestSelectiveQueryAllocatesFarLessThanMaterializing is the
// pushdown's acceptance bar: a limit-10 query over 12k objects keeps
// only bounded per-shard buffers, so it allocates a small fraction of
// what materializing every estimate does.
func TestSelectiveQueryAllocatesFarLessThanMaterializing(t *testing.T) {
	e := buildEngine(t, 4, 4, 1024, benchClaims())
	measure := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// Warm both paths once so lazy engine state is off the books.
	if n := runTop10(e); n != 10 {
		t.Fatalf("top-10 query returned %d rows", n)
	}
	_ = materializeAll(e)

	queryBytes := measure(func() { runTop10(e) })
	allBytes := measure(func() { _ = materializeAll(e) })
	t.Logf("selective query: %d bytes, materialized: %d bytes", queryBytes, allBytes)
	if queryBytes*5 >= allBytes {
		t.Errorf("selective query allocated %d bytes, not ≪ the materialized relation's %d", queryBytes, allBytes)
	}
}

// BenchmarkQueryTop10Contested is the selective-query benchmark the
// issue asks for: limit 10 of 12k objects through the pushdown.
func BenchmarkQueryTop10Contested(b *testing.B) {
	e := buildEngine(b, 4, 4, 1024, benchClaims())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if runTop10(e) != 10 {
			b.Fatal("short result")
		}
	}
}

// BenchmarkMaterializeAll is the materializing baseline the selective
// query is measured against.
func BenchmarkMaterializeAll(b *testing.B) {
	e := buildEngine(b, 4, 4, 1024, benchClaims())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(materializeAll(e).Rows) != 12000 {
			b.Fatal("short result")
		}
	}
}

// exportEngine is BenchmarkQueryExport's fixture: 100k objects, three
// claims each, over two shards — the plain export at the scale of the
// repository benchmark's query-mix checkpoint.
func exportEngine(b *testing.B) *stream.Engine {
	const objects = 100_000
	claims := make([][3]string, 0, 3*objects)
	for o := 0; o < objects; o++ {
		obj := fmt.Sprintf("x%06d", (o*7919)%objects)
		for s := 0; s < 3; s++ {
			val := fmt.Sprintf("v%d", o%4)
			if s == 2 && o%5 == 0 {
				val = "w"
			}
			claims = append(claims, [3]string{fmt.Sprintf("s%d", s), obj, val})
		}
	}
	return buildEngine(b, 2, 2, 4096, claims)
}

// BenchmarkQueryExport is the plain GET /v1/estimates of node, router
// member and `stream -values`: the empty query executed and written
// as CSV.
func BenchmarkQueryExport(b *testing.B) {
	e := exportEngine(b)
	b.ReportAllocs()
	for b.Loop() {
		res, err := Execute(e, &Query{})
		if err != nil {
			b.Fatal(err)
		}
		if err := WriteCSV(io.Discard, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryLookup is the keyed read, GET /v1/estimates?where=
// object=X, over BenchmarkQueryExport's fixture: the object-equality
// conjunct makes it a point read through the owning shard's index, so
// its cost is one row, not the shard.
func BenchmarkQueryLookup(b *testing.B) {
	e := exportEngine(b)
	q := mustParse("where=object=x042424")
	if res, err := Execute(e, q); err != nil || len(Materialize(res).Rows) != 1 {
		b.Fatalf("lookup fixture: want one row (err %v)", err)
	}
	b.ReportAllocs()
	for b.Loop() {
		res, err := Execute(e, q)
		if err != nil {
			b.Fatal(err)
		}
		if err := WriteCSV(io.Discard, res); err != nil {
			b.Fatal(err)
		}
	}
}

// mixEngine is the fixture of BenchmarkQueryTopK and BenchmarkQueryGroup,
// shaped like the repository benchmark's query-mix checkpoint: 100k
// objects over two shards, eight claims each from 40 sources, four
// values with a quarter of the claims scattered over the others, so
// contestedness varies and the group query has four keys. It is built
// once per test binary.
var mixEngine = sync.OnceValue(func() *stream.Engine {
	const objects, claimsPer, sources, values = 100_000, 8, 40, 4
	claims := make([][3]string, 0, claimsPer*objects)
	x := uint64(1)
	for r := 0; r < claimsPer; r++ {
		for o := 0; o < objects; o++ {
			x = x*6364136223846793005 + 1442695040888963407
			val := o % values
			if x>>62 == 0 {
				val = int(x>>40) % values
			}
			claims = append(claims, [3]string{fmt.Sprintf("s%02d", (o+5*r)%sources), fmt.Sprintf("m%06d", (o*7919)%objects), fmt.Sprintf("v%d", val)})
		}
	}
	opts := stream.DefaultEngineOptions()
	opts.Shards, opts.Workers = 2, 2
	e, err := stream.NewEngine(opts)
	if err != nil {
		panic(err)
	}
	ingest(e, claims)
	return e
})

// benchQuery runs q over the query-mix fixture, result written as CSV.
func benchQuery(b *testing.B, raw string, rows int) {
	e, q := mixEngine(), mustParse(raw)
	if res, err := Execute(e, q); err != nil || len(Materialize(res).Rows) != rows {
		b.Fatalf("%s: want %d rows (err %v)", raw, rows, err)
	}
	b.ReportAllocs()
	for b.Loop() {
		res, err := Execute(e, q)
		if err != nil {
			b.Fatal(err)
		}
		if err := WriteCSV(io.Discard, res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryTopK is query-mix's top-k read: the ten most contested
// of 100k objects.
func BenchmarkQueryTopK(b *testing.B) { benchQuery(b, "order=-contested&limit=10", 10) }

// BenchmarkQueryGroup is query-mix's group read: every object folded
// into its value's count and mean confidence.
func BenchmarkQueryGroup(b *testing.B) { benchQuery(b, "group=value&agg=count,avg:confidence", 4) }
