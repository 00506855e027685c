// The query executor. Engine-backed execution pushes predicates into
// the per-shard scans (object-equality conjuncts prune to a single
// shard; the disagree pair resolves to interned ids checked during
// the locked scan) and keeps bounded state per shard: a top-k buffer
// when the query has a limit, group partials when it aggregates. Rows
// leave the shard lock in a columnar run that holds only the columns
// the query orders or projects by. The per-shard runs then compose
// lazily — a k-way merge under the query's total order, a projection
// at yield time.
//
// Determinism contract: every result is totally ordered (the order
// keys, then the object name / the remaining columns), group
// aggregates fold per-shard partials in shard order, and the cluster
// router folds per-member results with the same comparator and the
// same partial-fold tree — so a query's bytes are identical for any
// worker count and for an N-member cluster vs a single N-shard
// engine.
package query

import (
	"fmt"
	"iter"
	"slices"
	"sort"
	"strings"

	"slimfast/internal/stream"
)

// Column indices of EstimateColumns, the engine-backed relation.
const (
	colObject = iota
	colValue
	colConfidence
	colContested
	colChanged
	colSources
	colDissent
)

// Result is an executed query: a schema plus a lazy row sequence.
// Rows yields one reused []Val per row — copy it to retain it beyond
// the iteration step.
type Result struct {
	Cols []Column
	Rows iter.Seq[[]Val]
}

// Relation is a materialized table, the input of ExecuteRelation and
// the router's merge.
type Relation struct {
	Cols []Column
	Rows [][]Val
}

// condP is a compiled where conjunct.
type condP struct {
	ix   int
	kind Kind
	op   string
	str  string
	num  float64
}

func (c *condP) evalStr(s string) bool {
	if c.op == "=" {
		return s == c.str
	}
	return s != c.str
}

func (c *condP) evalNum(f float64) bool {
	switch c.op {
	case "=":
		return f == c.num
	case "!=":
		return f != c.num
	case "<":
		return f < c.num
	case "<=":
		return f <= c.num
	case ">":
		return f > c.num
	default:
		return f >= c.num
	}
}

// orderP is a compiled sort key.
type orderP struct {
	ix   int
	kind Kind
	desc bool
}

// plan is a query compiled against a concrete relation schema.
type plan struct {
	cols     []Column
	conds    []condP
	order    []orderP
	proj     []int
	limit    int    // row cap, 0 = unlimited
	pair     bool   // rows must carry Row.Disagree (the query names a disagree pair)
	nums     []int  // numeric columns a row query keeps past the scan
	slot     []int  // per column, its index in nums; -1 = not kept
	groupIx  int    // -1 when not grouping
	aggIx    []int  // aggregated column per agg (-1 for count)
	accKinds []Kind // accumulator kind per agg
	aggs     []Agg
}

// compile resolves a parsed query's column names against a schema.
// defaultProj is used when the query has no explicit projection.
func compile(q *Query, cols []Column, defaultProj []int) (*plan, error) {
	ix := make(map[string]int, len(cols))
	for i, c := range cols {
		ix[c.Name] = i
	}
	p := &plan{cols: cols, groupIx: -1, limit: q.Limit, pair: q.DisA != ""}
	for _, c := range q.Where {
		i, ok := ix[c.Col]
		if !ok {
			return nil, fmt.Errorf("where: relation has no column %q", c.Col)
		}
		kind := cols[i].Kind
		if (kind == KindString) == c.num {
			return nil, fmt.Errorf("where: column %q type mismatch", c.Col)
		}
		p.conds = append(p.conds, condP{ix: i, kind: kind, op: c.Op, str: c.Str, num: c.Num})
	}
	for _, k := range q.Order {
		i, ok := ix[k.Col]
		if !ok {
			return nil, fmt.Errorf("order: relation has no column %q", k.Col)
		}
		p.order = append(p.order, orderP{ix: i, kind: cols[i].Kind, desc: k.Desc})
	}
	if q.Group != "" {
		gi, ok := ix[q.Group]
		if !ok {
			return nil, fmt.Errorf("group: relation has no column %q", q.Group)
		}
		p.groupIx = gi
		p.aggs = q.Aggs
		for _, a := range q.Aggs {
			if a.Fn == "count" {
				p.aggIx = append(p.aggIx, -1)
				p.accKinds = append(p.accKinds, KindInt)
				continue
			}
			ai, okA := ix[a.Col]
			if !okA {
				return nil, fmt.Errorf("agg: relation has no column %q", a.Col)
			}
			if cols[ai].Kind == KindString {
				return nil, fmt.Errorf("agg: column %q is a string", a.Col)
			}
			p.aggIx = append(p.aggIx, ai)
			p.accKinds = append(p.accKinds, cols[ai].Kind)
		}
		return p, nil
	}
	if len(q.Cols) == 0 {
		p.proj = defaultProj
	} else {
		for _, name := range q.Cols {
			i, ok := ix[name]
			if !ok {
				return nil, fmt.Errorf("cols: relation has no column %q", name)
			}
			p.proj = append(p.proj, i)
		}
	}
	return p, nil
}

// projCols returns the output schema of a non-group plan.
func (p *plan) projCols() []Column {
	out := make([]Column, len(p.proj))
	for i, ix := range p.proj {
		out[i] = p.cols[ix]
	}
	return out
}

// groupCols returns the output schema of a group plan: the group key
// then one column per aggregate (count is an int, avg a float, the
// rest inherit the aggregated column's kind).
func (p *plan) groupCols() []Column {
	out := []Column{p.cols[p.groupIx]}
	for i, a := range p.aggs {
		kind := p.accKinds[i]
		if a.Fn == "avg" {
			kind = KindFloat
		}
		out = append(out, Column{Name: a.Name(), Kind: kind})
	}
	return out
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// ---- engine-backed execution over stream.Row ----

func estRowStr(r *stream.Row, ix int) string {
	if ix == colObject {
		return r.Object
	}
	return r.Value
}

func estRowNum(r *stream.Row, ix int) float64 {
	switch ix {
	case colConfidence:
		return r.Confidence
	case colContested:
		return r.Contested
	case colChanged:
		return float64(r.Changed)
	case colSources:
		return float64(r.Sources)
	default:
		return float64(r.Dissent)
	}
}

// matchRow evaluates the compiled conjuncts (and the disagree gate)
// against a borrowed scan row.
func (p *plan) matchRow(r *stream.Row) bool {
	if p.pair && !r.Disagree {
		return false
	}
	for i := range p.conds {
		c := &p.conds[i]
		if c.kind == KindString {
			if !c.evalStr(estRowStr(r, c.ix)) {
				return false
			}
		} else if !c.evalNum(estRowNum(r, c.ix)) {
			return false
		}
	}
	return true
}

// run is one shard's matching rows, kept past the shard lock in
// columnar form: each row's object and value names, and only the
// numeric columns the plan orders or projects by (plan.nums). The
// plain dump so holds 40 bytes a row, not a whole stream.Row, while
// the shards merge. A run sorts in place under the plan's total order.
type run struct {
	p   *plan
	str []string  // row i's object at 2i, its value at 2i+1
	num []float64 // row i's kept numeric columns from i*len(p.nums)
}

func (rn *run) Len() int           { return len(rn.str) / 2 }
func (rn *run) Less(i, j int) bool { return rn.p.cmpKept(rn, i, rn, j) < 0 }
func (rn *run) Swap(i, j int) {
	str, num, w := rn.str, rn.num, len(rn.p.nums)
	str[2*i], str[2*i+1], str[2*j], str[2*j+1] = str[2*j], str[2*j+1], str[2*i], str[2*i+1]
	for k := range w {
		num[i*w+k], num[j*w+k] = num[j*w+k], num[i*w+k]
	}
}

// keepCols picks the numeric columns a row query keeps past the scan:
// its order keys and its projection.
func (p *plan) keepCols() {
	p.slot = slices.Repeat([]int{-1}, len(p.cols))
	keys := slices.Clone(p.proj)
	for _, k := range p.order {
		keys = append(keys, k.ix)
	}
	for _, ix := range keys {
		if p.cols[ix].Kind != KindString && p.slot[ix] < 0 {
			p.slot[ix] = len(p.nums)
			p.nums = append(p.nums, ix)
		}
	}
}

// keep appends a borrowed scan row to the run.
func (p *plan) keep(rn *run, r *stream.Row) {
	rn.str = append(rn.str, r.Object, r.Value)
	for _, ix := range p.nums {
		rn.num = append(rn.num, estRowNum(r, ix))
	}
}

// cmpKept is the query's total order over kept rows: the order keys,
// then the (unique) object name.
func (p *plan) cmpKept(a *run, i int, b *run, j int) int {
	w := len(p.nums)
	for _, k := range p.order {
		var c int
		if k.kind == KindString {
			c = strings.Compare(a.str[2*i+k.ix], b.str[2*j+k.ix])
		} else {
			c = cmpFloat(a.num[i*w+p.slot[k.ix]], b.num[j*w+p.slot[k.ix]])
		}
		if k.desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return strings.Compare(a.str[2*i], b.str[2*j])
}

// sortRun sorts the run and keeps its first n rows (all when n <= 0).
func sortRun(rn *run, n int) {
	sort.Sort(rn)
	rows := rn.Len()
	if n > 0 {
		rows = min(rows, n)
	}
	rn.str, rn.num = rn.str[:2*rows], rn.num[:rows*len(rn.p.nums)]
}

// scanScope resolves where a query scans. An object-equality conjunct
// pins it to a single shard, so the other shards are never even
// snapshotted — the one structural pushdown the hash layout allows —
// and turns that shard's scan into a point read through its object
// index; matchRow still checks every conjunct on the one row. A
// disagree pair resolves to interned ids; when either source has never
// been seen no row can have them disagreeing, so no shard is scanned.
func scanScope(eng *stream.Engine, q *Query) ([]int, stream.ScanOptions) {
	opt := stream.NoPair
	if q.DisA != "" {
		ia, ib, ok := eng.SourceIDs(q.DisA, q.DisB)
		if !ok {
			return nil, opt
		}
		opt.PairA, opt.PairB = ia, ib
	}
	n := eng.NumShards()
	if obj, ok := q.ObjectKey(); ok {
		opt.Point, opt.Object = true, obj
		return []int{stream.ShardIndex(obj, n)}, opt
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all, opt
}

// Execute runs a compiled query against a live engine. Safe to call
// during ingest (each shard is scanned under its read lock); for
// byte-deterministic results quiesce ingest, as with /estimates.
func Execute(eng *stream.Engine, q *Query) (*Result, error) {
	p, err := compile(q, EstimateColumns(), []int{colObject, colValue, colConfidence})
	if err != nil {
		return nil, err
	}
	if p.groupIx >= 0 {
		return p.groupShards(eng, q).finalize(p), nil
	}
	p.keepCols()
	shards, opt := scanScope(eng, q)
	runs := make([]*run, len(shards))
	for i, s := range shards {
		runs[i] = p.collectShard(eng, s, opt)
	}
	return &Result{Cols: p.projCols(), Rows: p.mergeRows(runs)}, nil
}

// ExecutePartial runs a group query but stops before finalizing: the
// result is the per-group partial accumulators (count plus raw
// sums/mins/maxes), the cluster's internal scatter format. The router
// folds members' partials in node order — the same fold tree a single
// N-shard engine uses over its shards — then finalizes once.
func ExecutePartial(eng *stream.Engine, q *Query) (*Result, error) {
	if q.Group == "" {
		return nil, fmt.Errorf("partial: not a group query")
	}
	p, err := compile(q, EstimateColumns(), nil)
	if err != nil {
		return nil, err
	}
	return p.groupShards(eng, q).partial(p), nil
}

// groupShards aggregates the query's shards: one group table per
// shard, folded in shard order.
func (p *plan) groupShards(eng *stream.Engine, q *Query) *groupTable {
	shards, opt := scanScope(eng, q)
	global := newGroupTable()
	for _, s := range shards {
		local := newGroupTable()
		eng.ScanShard(s, opt, func(r *stream.Row) bool {
			if p.matchRow(r) {
				local.addRow(p, r)
			}
			return true
		})
		global.fold(p, local)
	}
	return global
}

// collectShard scans one shard with the predicates pushed down. A
// query without predicates keeps every live row, so its run is sized
// to the shard up front. A plan with no order keys is ordered by
// object name alone, so it scans the shard in the engine's cached
// name order: the run comes out sorted and the scan stops at the
// limit. Any other plan sorts its run; with a limit the run stays
// bounded, sorted and cut back to the limit every time it reaches a
// small multiple of it, so a selective query over a huge shard
// allocates O(limit), not O(shard).
func (p *plan) collectShard(eng *stream.Engine, s int, opt stream.ScanOptions) *run {
	opt.ByName = len(p.order) == 0
	size, cut := 0, 0
	if len(p.conds) == 0 && !p.pair {
		size = eng.ShardLen(s)
	}
	if p.limit > 0 {
		cut = 4*p.limit + 16
		size = min(size, cut)
	}
	rn := &run{p: p, str: make([]string, 0, 2*size), num: make([]float64, 0, size*len(p.nums))}
	eng.ScanShard(s, opt, func(r *stream.Row) bool {
		if !p.matchRow(r) {
			return true
		}
		p.keep(rn, r)
		if opt.ByName {
			return p.limit <= 0 || rn.Len() < p.limit
		}
		if cut > 0 && rn.Len() >= cut {
			sortRun(rn, p.limit)
		}
		return true
	})
	if !opt.ByName {
		sortRun(rn, p.limit)
	}
	return rn
}

// mergeRows lazily k-way-merges the per-shard sorted runs under the
// plan's total order, projecting at yield time. Cross-shard ties are
// impossible (an object lives in exactly one shard), so the merge
// order — and therefore the output bytes — does not depend on the
// shard iteration pattern.
func (p *plan) mergeRows(runs []*run) iter.Seq[[]Val] {
	return func(yield func([]Val) bool) {
		heads := make([]int, len(runs))
		out := make([]Val, len(p.proj))
		for n := 0; p.limit <= 0 || n < p.limit; n++ {
			best := -1
			for i, rn := range runs {
				if heads[i] < rn.Len() && (best < 0 || p.cmpKept(rn, heads[i], runs[best], heads[best]) < 0) {
					best = i
				}
			}
			if best < 0 {
				return
			}
			rn, row := runs[best], heads[best]
			heads[best]++
			for i, ix := range p.proj {
				switch p.cols[ix].Kind {
				case KindString:
					out[i] = Val{Kind: KindString, Str: rn.str[2*row+ix]} // colObject or colValue
				case KindFloat:
					out[i] = Val{Kind: KindFloat, Num: rn.num[row*len(p.nums)+p.slot[ix]]}
				default:
					out[i] = Val{Kind: KindInt, Int: int64(rn.num[row*len(p.nums)+p.slot[ix]])}
				}
			}
			if !yield(out) {
				return
			}
		}
	}
}

// ---- group aggregation ----

// groupAcc is one group's partial state: the row count plus one
// accumulator per aggregate (sum for sum/avg, running min/max).
type groupAcc struct {
	key   Val
	count int64
	accs  []Val
}

// groupTable accumulates groups for one scan scope (a shard, or a
// fold of shards/members).
type groupTable struct {
	m map[Val]*groupAcc
}

func newGroupTable() *groupTable {
	return &groupTable{m: make(map[Val]*groupAcc)}
}

func colVal(cols []Column, ix int, r *stream.Row) Val {
	switch cols[ix].Kind {
	case KindString:
		return Val{Kind: KindString, Str: estRowStr(r, ix)}
	case KindFloat:
		return Val{Kind: KindFloat, Num: estRowNum(r, ix)}
	default:
		return Val{Kind: KindInt, Int: int64(estRowNum(r, ix))}
	}
}

// addRow folds one estimate row into the table.
func (g *groupTable) addRow(p *plan, r *stream.Row) {
	key := colVal(p.cols, p.groupIx, r)
	acc := g.m[key]
	if acc == nil {
		acc = &groupAcc{key: key, count: 1, accs: make([]Val, len(p.aggs))}
		for i, ix := range p.aggIx {
			if ix >= 0 {
				acc.accs[i] = colVal(p.cols, ix, r)
			} else {
				acc.accs[i] = Val{Kind: KindInt}
			}
		}
		g.m[key] = acc
		return
	}
	acc.count++
	for i, ix := range p.aggIx {
		if ix >= 0 {
			acc.accs[i] = combine(p.aggs[i].Fn, acc.accs[i], colVal(p.cols, ix, r))
		}
	}
}

// combine merges a new value (or a partial) into an accumulator.
// sum and avg add; min/max keep the extremum. Int accumulators stay
// exact; float addition order is fixed by the caller (slot order
// within a shard, shard/member order across).
func combine(fn string, a, b Val) Val {
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
	default: // sum, avg
		if a.Kind == KindInt {
			a.Int += b.Int
			return a
		}
		a.Num += b.Num
		return a
	}
}

// fold merges a finer-grained table (one shard, one member) into g.
// Per group the accumulators combine exactly once per fold, so the
// float addition tree is "partial per scope, folded in scope order" —
// identical for a single N-shard engine and an N-member cluster.
func (g *groupTable) fold(p *plan, local *groupTable) {
	for key, la := range local.m {
		acc := g.m[key]
		if acc == nil {
			g.m[key] = la
			continue
		}
		acc.count += la.count
		for i, a := range p.aggs {
			if p.aggIx[i] >= 0 {
				acc.accs[i] = combine(a.Fn, acc.accs[i], la.accs[i])
			}
		}
	}
}

// sortedAccs returns the groups sorted by key ascending — the fixed
// output (and partial emission) order.
func (g *groupTable) sortedAccs() []*groupAcc {
	out := make([]*groupAcc, 0, len(g.m))
	for _, acc := range g.m {
		out = append(out, acc)
	}
	sort.Slice(out, func(i, j int) bool { return cmpVal(out[i].key, out[j].key) < 0 })
	return out
}

// cmpVal orders two cells of the same column.
func cmpVal(a, b Val) int {
	if a.Kind == KindString {
		return strings.Compare(a.Str, b.Str)
	}
	return cmpFloat(a.num(), b.num())
}

// finalize turns the folded table into the group query's result:
// rows sorted by group key, avg divided out once, the limit applied
// here (never to partials — truncating a partial would corrupt the
// cluster fold).
func (g *groupTable) finalize(p *plan) *Result {
	accs := g.sortedAccs()
	if p.limit > 0 && len(accs) > p.limit {
		accs = accs[:p.limit]
	}
	cols := p.groupCols()
	rows := func(yield func([]Val) bool) {
		out := make([]Val, len(cols))
		for _, acc := range accs {
			out[0] = acc.key
			for i, a := range p.aggs {
				switch a.Fn {
				case "count":
					out[i+1] = Val{Kind: KindInt, Int: acc.count}
				case "avg":
					out[i+1] = Val{Kind: KindFloat, Num: acc.accs[i].num() / float64(acc.count)}
				default:
					out[i+1] = acc.accs[i]
				}
			}
			if !yield(out) {
				return
			}
		}
	}
	return &Result{Cols: cols, Rows: rows}
}

// partialCols is the wire schema of a partial group result: the group
// key, the count, then one raw accumulator per aggregate.
func (p *plan) partialCols() []Column {
	cols := []Column{p.cols[p.groupIx], {Name: "count", Kind: KindInt}}
	for i, a := range p.aggs {
		cols = append(cols, Column{Name: "acc:" + a.Name(), Kind: p.accKinds[i]})
	}
	return cols
}

// partial emits the folded table unfinalized, sorted by group key.
func (g *groupTable) partial(p *plan) *Result {
	accs := g.sortedAccs()
	cols := p.partialCols()
	rows := func(yield func([]Val) bool) {
		out := make([]Val, len(cols))
		for _, acc := range accs {
			out[0] = acc.key
			out[1] = Val{Kind: KindInt, Int: acc.count}
			for i := range p.aggs {
				out[i+2] = acc.accs[i]
			}
			if !yield(out) {
				return
			}
		}
	}
	return &Result{Cols: cols, Rows: rows}
}

// PartialColumns exposes the partial wire schema for a group query —
// what the router parses member responses against.
func PartialColumns(q *Query) ([]Column, error) {
	p, err := compile(q, EstimateColumns(), nil)
	if err != nil {
		return nil, err
	}
	if p.groupIx < 0 {
		return nil, fmt.Errorf("partial: not a group query")
	}
	return p.partialCols(), nil
}

// MergePartials folds per-member partial rows (node order) and
// finalizes — the router half of a cluster group query.
func MergePartials(q *Query, members [][][]Val) (*Result, error) {
	p, err := compile(q, EstimateColumns(), nil)
	if err != nil {
		return nil, err
	}
	if p.groupIx < 0 {
		return nil, fmt.Errorf("partial: not a group query")
	}
	global := newGroupTable()
	for _, rows := range members {
		for _, row := range rows {
			if len(row) != 2+len(p.aggs) {
				return nil, fmt.Errorf("partial: row has %d cells, want %d", len(row), 2+len(p.aggs))
			}
			key := row[0]
			acc := global.m[key]
			if acc == nil {
				acc = &groupAcc{key: key, count: row[1].Int, accs: append([]Val(nil), row[2:]...)}
				global.m[key] = acc
				continue
			}
			acc.count += row[1].Int
			for i, a := range p.aggs {
				if p.aggIx[i] >= 0 {
					acc.accs[i] = combine(a.Fn, acc.accs[i], row[2+i])
				}
			}
		}
	}
	return global.finalize(p), nil
}
