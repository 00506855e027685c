// The query executor. Engine-backed execution pushes predicates into
// the per-shard scans (object-equality conjuncts prune to a single
// shard; the disagree pair resolves to interned ids checked during
// the locked scan) and keeps bounded state per shard: a top-k buffer
// when the query has a limit, group partials when it aggregates. A
// top-k buffer admits only rows that rank before its current k-th row;
// group partials add each row through the aggregate's typed accumulate
// step, resolved once at compile time. A scan walks each object's
// claims only when the plan reads dissent or names a disagree pair.
// Rows leave the shard lock in a columnar run that holds only the
// columns the query orders or projects by. The per-shard runs then
// compose lazily — a k-way merge under the query's total order, a
// projection at yield time.
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
	limit    int     // row cap, 0 = unlimited
	pair     bool    // rows must carry Row.Disagree (the query names a disagree pair)
	nums     []int   // numeric columns a row query keeps past the scan
	slot     []int   // per column, its index in nums; -1 = not kept
	groupIx  int     // -1 when not grouping
	aggIx    []int   // aggregated column per agg (-1 for count)
	accKinds []Kind  // accumulator kind per agg
	ops      []aggOp // accumulate step per agg
	aggs     []Agg
}

// aggOp is an aggregate resolved to its accumulate step.
type aggOp uint8

const (
	opCount    aggOp = iota // no accumulator: the group's row count
	opSumInt                // sum/avg over an int column
	opSumFloat              // sum/avg over a float column
	opMin
	opMax
)

// resolveAgg picks the accumulate step of fn over a column of kind.
func resolveAgg(fn string, kind Kind) aggOp {
	switch fn {
	case "count":
		return opCount
	case "min":
		return opMin
	case "max":
		return opMax
	}
	if kind == KindInt {
		return opSumInt
	}
	return opSumFloat
}

// add folds v, one row's cell or another scope's partial, into the
// accumulator a; a group's first contribution seeds it. count has no
// accumulator, so callers skip it. sum and avg
// add in the accumulator's kind (ints stay exact); min/max keep the
// extremum. The float addition order is the caller's: slot order
// within a shard, shard/member order across.
func (op aggOp) add(a *Val, v Val, first bool) {
	switch {
	case first:
		*a = v
	case op == opSumFloat:
		a.Num += v.Num
	case op == opSumInt:
		a.Int += v.Int
	case op == opMin:
		if v.num() < a.num() {
			*a = v
		}
	default:
		if v.num() > a.num() {
			*a = v
		}
	}
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
		p.aggIx = make([]int, 0, len(q.Aggs))
		p.accKinds = make([]Kind, 0, len(q.Aggs))
		p.ops = make([]aggOp, 0, len(q.Aggs))
		for _, a := range q.Aggs {
			if a.Fn == "count" {
				p.aggIx = append(p.aggIx, -1)
				p.accKinds = append(p.accKinds, KindInt)
				p.ops = append(p.ops, opCount)
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
			p.ops = append(p.ops, resolveAgg(a.Fn, cols[ai].Kind))
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

// drop removes the run's last row.
func (rn *run) drop() {
	rn.str, rn.num = rn.str[:len(rn.str)-2], rn.num[:len(rn.num)-len(rn.p.nums)]
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

// readsDissent reports whether the plan reads the dissent column in a
// where, order, cols, group or agg clause — the one column that costs
// the scan a walk of each object's claims.
func (p *plan) readsDissent() bool {
	for _, c := range p.conds {
		if c.ix == colDissent {
			return true
		}
	}
	for _, k := range p.order {
		if k.ix == colDissent {
			return true
		}
	}
	return slices.Contains(p.proj, colDissent) || p.groupIx == colDissent || slices.Contains(p.aggIx, colDissent)
}

// scanScope resolves where a query scans. An object-equality conjunct
// pins it to a single shard, so the other shards are never even
// snapshotted — the one structural pushdown the hash layout allows —
// and turns that shard's scan into a point read through its object
// index; matchRow still checks every conjunct on the one row. A
// disagree pair resolves to interned ids; when either source has never
// been seen no row can have them disagreeing, so no shard is scanned.
// The scan walks each object's claims only for a pair or a plan that
// reads dissent.
func (p *plan) scanScope(eng *stream.Engine, q *Query) ([]int, stream.ScanOptions) {
	opt := stream.NoPair
	opt.Dissent = p.readsDissent()
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
	shards, opt := p.scanScope(eng, q)
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
	shards, opt := p.scanScope(eng, q)
	var global groupTable
	for _, s := range shards {
		var local groupTable
		eng.ScanShard(s, opt, func(r *stream.Row) bool {
			if p.matchRow(r) {
				local.addRow(p, r)
			}
			return true
		})
		global.fold(p, &local)
	}
	return &global
}

// collectShard scans one shard with the predicates pushed down. A
// query without predicates keeps every live row, so its run is sized
// to the shard up front. A plan with no order keys is ordered by
// object name alone, so it scans the shard in the engine's cached
// name order: the run comes out sorted and the scan stops at the
// limit. Any other plan sorts its run; with a limit the run stays
// bounded, sorted and cut back to the limit every time it reaches a
// small multiple of it, so a selective query over a huge shard
// allocates O(limit), not O(shard). Once cut, the run admits only a
// row that ranks strictly before its current k-th row: k kept rows
// already rank before any other (the order is total, names break
// ties), and the k-th row only improves with each cut, so a dropped
// row could never have reached the result.
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
	gated := false
	eng.ScanShard(s, opt, func(r *stream.Row) bool {
		if !p.matchRow(r) {
			return true
		}
		p.keep(rn, r)
		if opt.ByName {
			return p.limit <= 0 || rn.Len() < p.limit
		}
		if gated && p.cmpKept(rn, rn.Len()-1, rn, p.limit-1) >= 0 {
			rn.drop()
			return true
		}
		if cut > 0 && rn.Len() >= cut {
			sortRun(rn, p.limit)
			gated = true
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
// fold of shards/members). A value group has a handful of keys, and
// value names are interned, so the first few groups sit in a slice
// that a lookup checks before it falls back to the map, which holds
// only the groups past them.
type groupTable struct {
	first [8]*groupAcc // the first n groups seen
	n     int
	more  map[Val]*groupAcc
}

// get returns key's group, nil when the table has none. The slice
// check is the map's key equality, field by field, the interned string
// last.
func (g *groupTable) get(key Val) *groupAcc {
	for _, acc := range g.first[:g.n] {
		if k := &acc.key; k.Kind == key.Kind && k.Int == key.Int && k.Num == key.Num && k.Str == key.Str {
			return acc
		}
	}
	if g.more == nil {
		return nil
	}
	return g.more[key]
}

// put adds a group the table does not hold yet.
func (g *groupTable) put(acc *groupAcc) {
	if g.n < len(g.first) {
		g.first[g.n] = acc
		g.n++
		return
	}
	if g.more == nil {
		g.more = make(map[Val]*groupAcc)
	}
	g.more[acc.key] = acc
}

// group returns key's group, adding an empty one (count 0, every
// accumulator seeded by its first contribution) on first sight.
func (g *groupTable) group(p *plan, key Val) (acc *groupAcc, fresh bool) {
	if acc = g.get(key); acc != nil {
		return acc, false
	}
	acc = &groupAcc{key: key, accs: make([]Val, len(p.aggs))}
	for i, kind := range p.accKinds {
		acc.accs[i] = Val{Kind: kind}
	}
	g.put(acc)
	return acc, true
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
	acc, fresh := g.group(p, colVal(p.cols, p.groupIx, r))
	acc.count++
	for i, ix := range p.aggIx {
		if ix >= 0 {
			p.ops[i].add(&acc.accs[i], colVal(p.cols, ix, r), fresh)
		}
	}
}

// addPartial folds another scope's partial for key — count rows with
// accumulators accs — into the table.
func (g *groupTable) addPartial(p *plan, key Val, count int64, accs []Val) {
	acc, fresh := g.group(p, key)
	acc.count += count
	for i, ix := range p.aggIx {
		if ix >= 0 {
			p.ops[i].add(&acc.accs[i], accs[i], fresh)
		}
	}
}

// fold merges a finer-grained table (one shard, one member) into g.
// Per group the accumulators combine exactly once per fold, so the
// float addition tree is "partial per scope, folded in scope order" —
// identical for a single N-shard engine and an N-member cluster.
func (g *groupTable) fold(p *plan, local *groupTable) {
	for _, la := range local.first[:local.n] {
		g.foldGroup(p, la)
	}
	for _, la := range local.more {
		g.foldGroup(p, la)
	}
}

// foldGroup merges one group of a finer-grained table, taking it over
// whole when g has no such group.
func (g *groupTable) foldGroup(p *plan, la *groupAcc) {
	if g.get(la.key) == nil {
		g.put(la)
		return
	}
	g.addPartial(p, la.key, la.count, la.accs)
}

// sortedAccs returns the groups sorted by key ascending — the fixed
// output (and partial emission) order.
func (g *groupTable) sortedAccs() []*groupAcc {
	out := make([]*groupAcc, 0, g.n+len(g.more))
	out = append(out, g.first[:g.n]...)
	for _, acc := range g.more {
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
	var global groupTable
	for _, rows := range members {
		for _, row := range rows {
			if len(row) != 2+len(p.aggs) {
				return nil, fmt.Errorf("partial: row has %d cells, want %d", len(row), 2+len(p.aggs))
			}
			global.addPartial(p, row[0], row[1].Int, row[2:])
		}
	}
	return global.finalize(p), nil
}
