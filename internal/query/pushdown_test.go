package query

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"slimfast/internal/randx"
	"slimfast/internal/stream"
)

// tiedClaims generates a stream over n objects built for ties: two in
// five objects are unanimous (contested 0, confidence 1, dissent 0),
// the rest split one to twelve claims from 16 sources over four values,
// so sources takes twelve values and most order keys tie often.
func tiedClaims(seed int64, n int) [][3]string {
	rng := randx.New(seed)
	var out [][3]string
	for _, o := range rng.Shuffled(n) {
		obj := fmt.Sprintf("g%05d", o)
		k := 1 + rng.Intn(12)
		srcs := rng.Shuffled(16)[:k]
		unanimous := rng.Intn(5) < 2
		major := rng.Intn(4)
		for _, s := range srcs {
			val := major
			if !unanimous && rng.Intn(3) == 0 {
				val = rng.Intn(4)
			}
			out = append(out, [3]string{fmt.Sprintf("s%d", s), obj, fmt.Sprintf("v%d", val)})
		}
	}
	return out
}

// pushdownEngines are the generated engines of the gate, pruning and
// group tests: 1500 objects over two or three shards, every shard
// holding well over 4·100+16 rows so a limit-100 top-k reaches the
// admission gate.
func pushdownEngines(t *testing.T) map[string]*stream.Engine {
	t.Helper()
	engines := map[string]*stream.Engine{}
	for _, shards := range []int{2, 3} {
		for _, seed := range []int64{1, 2} {
			e := buildEngine(t, shards, 2, 256, tiedClaims(seed, 1500))
			for s := range e.NumShards() {
				if n := e.ShardLen(s); n < 4*100+16 {
					t.Fatalf("shards=%d seed=%d: shard %d holds %d rows, too few for the gate", shards, seed, s, n)
				}
			}
			engines[fmt.Sprintf("shards=%d/seed=%d", shards, seed)] = e
		}
	}
	return engines
}

// fullRelation materializes every column of the estimates relation.
func fullRelation(t *testing.T, e *stream.Engine) *Relation {
	t.Helper()
	var all Query
	for _, c := range EstimateColumns() {
		all.Cols = append(all.Cols, c.Name)
	}
	res, err := Execute(e, &all)
	if err != nil {
		t.Fatal(err)
	}
	return Materialize(res)
}

// ndjsonOf returns a renderer of results as NDJSON, whose
// shortest-round-trip floats make byte equality bit equality.
func ndjsonOf(t *testing.T) func(*Result, error) string {
	return func(res *Result, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteNDJSON(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
}

// TestTopKGateMatchesFullSort is the admission gate's differential
// oracle: every top-k over the generated engines renders the bytes of
// a full sort of the materialized relation cut to the limit, for
// limits 1, 10 and 100, ascending and descending keys, and keys that
// tie on most rows (every unanimous object has contested 0).
func TestTopKGateMatchesFullSort(t *testing.T) {
	render := ndjsonOf(t)
	orders := []string{"contested", "-contested", "confidence", "-confidence", "sources", "-sources",
		"-changed", "dissent", "-dissent", "value", "-value,contested", "sources,-confidence", "-dissent,sources,value"}
	for name, e := range pushdownEngines(t) {
		rel := fullRelation(t, e)
		for _, order := range orders {
			for _, limit := range []int{1, 10, 100} {
				raw := fmt.Sprintf("order=%s&limit=%d&cols=object,value,contested,sources,dissent", order, limit)
				got := render(Execute(e, parseQ(t, raw)))
				want := render(ExecuteRelation(rel, parseQ(t, raw)))
				if got != want {
					t.Errorf("%s: %q diverges from the full sort\n got:\n%s\nwant:\n%s", name, raw, got, want)
				}
			}
		}
	}
}

// claimDissent counts, per object, the claims the stream makes on it
// that differ from value(object) — dissent and the disagree pair
// computed from the claims rather than by the scan.
func claimDissent(claims [][3]string, value map[string]string) map[string]int64 {
	out := map[string]int64{}
	for _, c := range claims {
		if c[2] != value[c[1]] {
			out[c[1]]++
		}
	}
	return out
}

// TestDissentReadersGetExactValues checks the claim-walk pruning: a
// plan that reads dissent in exactly one clause (where, order, cols,
// group or agg), or names a disagree pair, sees the dissent and
// disagree values the stream's claims give, against a relation built
// from a scan that never reads them.
func TestDissentReadersGetExactValues(t *testing.T) {
	render := ndjsonOf(t)
	claims := tiedClaims(3, 1500)
	e := buildEngine(t, 3, 2, 256, claims)
	lean, err := Execute(e, parseQ(t, "cols=object,value,confidence,contested,changed,sources"))
	if err != nil {
		t.Fatal(err)
	}
	rel := Materialize(lean)
	rel.Cols = EstimateColumns()
	value := map[string]string{}
	for _, row := range rel.Rows {
		value[row[colObject].Str] = row[colValue].Str
	}
	dissent := claimDissent(claims, value)
	positive := 0
	for i, row := range rel.Rows {
		d := dissent[row[colObject].Str]
		rel.Rows[i] = append(row, Val{Kind: KindInt, Int: d})
		if d > 0 {
			positive++
		}
	}
	if positive == 0 || positive == len(rel.Rows) {
		t.Fatalf("%d of %d objects dissent; the test needs both kinds", positive, len(rel.Rows))
	}
	for _, raw := range []string{
		"where=dissent>2&cols=object,value",
		"where=dissent=0&order=-contested&limit=9&cols=object",
		"order=-dissent&limit=7&cols=object,value",
		"order=dissent,-contested&limit=100&cols=object,contested",
		"cols=object,dissent",
		"cols=dissent,sources&order=-sources&limit=40",
		"group=dissent&agg=count",
		"group=value&agg=sum:dissent,max:dissent,min:dissent,avg:dissent",
	} {
		got := render(Execute(e, parseQ(t, raw)))
		want := render(ExecuteRelation(rel, parseQ(t, raw)))
		if got != want {
			t.Errorf("%q: dissent diverges from the claims\n got:\n%s\nwant:\n%s", raw, got, want)
		}
	}

	// The disagree pair: both sources claim the object, with different
	// values. The relation oracle keeps exactly those rows.
	claimed := map[[2]string]string{}
	for _, c := range claims {
		claimed[[2]string{c[0], c[1]}] = c[2]
	}
	pair := &Relation{Cols: rel.Cols}
	for _, row := range rel.Rows {
		a, okA := claimed[[2]string{"s3", row[colObject].Str}]
		b, okB := claimed[[2]string{"s11", row[colObject].Str}]
		if okA && okB && a != b {
			pair.Rows = append(pair.Rows, row)
		}
	}
	if len(pair.Rows) == 0 {
		t.Fatal("no object has s3 and s11 disagreeing")
	}
	for _, raw := range []string{
		"cols=object,value",
		"order=-contested&limit=5&cols=object,contested",
		"where=dissent>=2&cols=object,dissent",
		"group=value&agg=count,sum:sources",
	} {
		got := render(Execute(e, parseQ(t, "disagree=s3,s11&"+raw)))
		want := render(ExecuteRelation(pair, parseQ(t, raw)))
		if got != want {
			t.Errorf("disagree=s3,s11&%s diverges from the claims\n got:\n%s\nwant:\n%s", raw, got, want)
		}
	}
}

// oracleGroup is one group of oracleGroups: the row count plus one raw
// accumulator per aggregate.
type oracleGroup struct {
	key   Val
	count int64
	accs  []Val
}

// oracleCombine merges a value or a partial into an accumulator by the
// aggregate's name: sum and avg add in the accumulator's kind, min and
// max keep the extremum.
func oracleCombine(fn string, a, b Val) Val {
	switch fn {
	case "min":
		if b.num() < a.num() {
			return b
		}
		return a
	case "max":
		if b.num() > a.num() {
			return b
		}
		return a
	default:
		if a.Kind == KindInt {
			a.Int += b.Int
			return a
		}
		a.Num += b.Num
		return a
	}
}

// oracleGroups is the group executor before typed accumulators, kept
// as the test oracle: each scope's rows (full estimates rows, in scan
// order) fold into a map keyed by the group cell, a new group seeded
// by its first row. It returns every scope's partial rows, sorted by
// key.
func oracleGroups(p *plan, scopes [][][]Val) [][][]Val {
	var partials [][][]Val
	for _, rows := range scopes {
		local := map[Val]*oracleGroup{}
		for _, row := range rows {
			key := row[p.groupIx]
			g := local[key]
			if g == nil {
				g = &oracleGroup{key: key, count: 1, accs: make([]Val, len(p.aggs))}
				for i, ix := range p.aggIx {
					if ix >= 0 {
						g.accs[i] = row[ix]
					} else {
						g.accs[i] = Val{Kind: KindInt}
					}
				}
				local[key] = g
				continue
			}
			g.count++
			for i, ix := range p.aggIx {
				if ix >= 0 {
					g.accs[i] = oracleCombine(p.aggs[i].Fn, g.accs[i], row[ix])
				}
			}
		}
		partials = append(partials, oraclePartial(local))
	}
	return partials
}

// oracleFold folds per-scope partial rows in scope order, a new group
// taking its first partial as is: the engine-wide (or cluster-wide)
// partial, sorted by key.
func oracleFold(p *plan, partials [][][]Val) [][]Val {
	merged := map[Val]*oracleGroup{}
	for _, part := range partials {
		for _, row := range part {
			g := merged[row[0]]
			if g == nil {
				merged[row[0]] = &oracleGroup{key: row[0], count: row[1].Int, accs: append([]Val(nil), row[2:]...)}
				continue
			}
			g.count += row[1].Int
			for i, a := range p.aggs {
				if p.aggIx[i] >= 0 {
					g.accs[i] = oracleCombine(a.Fn, g.accs[i], row[2+i])
				}
			}
		}
	}
	return oraclePartial(merged)
}

// oracleFinal finalizes a folded partial: avg divided out, the limit
// applied.
func oracleFinal(p *plan, merged [][]Val) [][]Val {
	var final [][]Val
	for _, part := range merged {
		row := []Val{part[0]}
		for i, a := range p.aggs {
			switch a.Fn {
			case "count":
				row = append(row, part[1])
			case "avg":
				row = append(row, Val{Kind: KindFloat, Num: part[2+i].num() / float64(part[1].Int)})
			default:
				row = append(row, part[2+i])
			}
		}
		final = append(final, row)
	}
	if p.limit > 0 && len(final) > p.limit {
		final = final[:p.limit]
	}
	return final
}

// oraclePartial lists a table's groups as partial rows sorted by key.
func oraclePartial(m map[Val]*oracleGroup) [][]Val {
	groups := make([]*oracleGroup, 0, len(m))
	for _, g := range m {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return cmpVal(groups[i].key, groups[j].key) < 0 })
	var rows [][]Val
	for _, g := range groups {
		rows = append(rows, append([]Val{g.key, {Kind: KindInt, Int: g.count}}, g.accs...))
	}
	return rows
}

// shardRows scans every shard of e in slot order into full estimates
// rows, keeping those p's conjuncts and disagree pair admit: the
// executor's per-shard group scopes.
func shardRows(e *stream.Engine, p *plan, q *Query) [][][]Val {
	opt := stream.NoPair
	opt.Dissent = true
	if q.DisA != "" {
		opt.PairA, opt.PairB, _ = e.SourceIDs(q.DisA, q.DisB)
	}
	cols := EstimateColumns()
	scopes := make([][][]Val, e.NumShards())
	for s := range scopes {
		e.ScanShard(s, opt, func(r *stream.Row) bool {
			if p.matchRow(r) {
				row := make([]Val, len(cols))
				for ix := range cols {
					row[ix] = colVal(cols, ix, r)
				}
				scopes[s] = append(scopes[s], row)
			}
			return true
		})
	}
	return scopes
}

// TestGroupMatchesOracle holds the typed group accumulators to the old
// map-and-combine fold, bit for bit, on every path that aggregates:
// the engine scan (ExecutePartial per scope and the finalized Execute),
// MergePartials over the per-shard partials, and ExecuteRelation over
// the same rows as one scope. The group columns include ones with far
// more keys than the lookup's slice (sources has twelve, confidence
// and object hundreds), so the map fallback runs.
func TestGroupMatchesOracle(t *testing.T) {
	render := ndjsonOf(t)
	queries := []string{
		"group=value&agg=count,sum:confidence,avg:confidence,min:contested,max:contested",
		"group=value&agg=avg:contested,sum:contested,sum:sources&where=contested>0",
		"group=sources&agg=count,avg:confidence,sum:changed,min:changed,max:dissent",
		"group=confidence&agg=count,max:dissent,sum:contested",
		"group=object&agg=avg:confidence,min:sources&limit=20",
		"group=dissent&agg=count,sum:confidence,avg:dissent",
		"group=changed&agg=count,max:confidence,min:sources",
		"group=value&agg=count,sum:confidence&disagree=s0,s1",
		"group=contested&agg=count&limit=3",
	}
	for name, e := range pushdownEngines(t) {
		for _, raw := range queries {
			q := parseQ(t, raw)
			p, err := compile(q, EstimateColumns(), nil)
			if err != nil {
				t.Fatal(err)
			}
			scopes := shardRows(e, p, q)
			partials := oracleGroups(p, scopes)
			merged := oracleFold(p, partials)
			if len(merged) == 0 {
				t.Fatalf("%s: %q has no groups", name, raw)
			}
			want := render(relationRows(p.groupCols(), oracleFinal(p, merged)), nil)
			if got := render(Execute(e, q)); got != want {
				t.Errorf("%s: Execute(%q) diverges from the oracle\n got:\n%s\nwant:\n%s", name, raw, got, want)
			}
			if got, wantP := render(ExecutePartial(e, q)), render(relationRows(p.partialCols(), merged), nil); got != wantP {
				t.Errorf("%s: ExecutePartial(%q) diverges from the oracle\n got:\n%s\nwant:\n%s", name, raw, got, wantP)
			}
			if got := render(MergePartials(q, partials)); got != want {
				t.Errorf("%s: MergePartials(%q) diverges from the oracle\n got:\n%s\nwant:\n%s", name, raw, got, want)
			}
			if q.DisA != "" {
				continue // ExecuteRelation has no claims to pair
			}
			var rows [][]Val
			for _, sc := range scopes {
				rows = append(rows, sc...)
			}
			relWant := render(relationRows(p.groupCols(), oracleFinal(p, oracleFold(p, oracleGroups(p, [][][]Val{rows})))), nil)
			if got := render(ExecuteRelation(&Relation{Cols: EstimateColumns(), Rows: rows}, q)); got != relWant {
				t.Errorf("%s: ExecuteRelation(%q) diverges from the oracle\n got:\n%s\nwant:\n%s", name, raw, got, relWant)
			}
		}
	}
}

// relationRows is materialized rows as a Result.
func relationRows(cols []Column, rows [][]Val) *Result {
	return &Result{Cols: cols, Rows: func(yield func([]Val) bool) {
		for _, row := range rows {
			if !yield(row) {
				return
			}
		}
	}}
}
