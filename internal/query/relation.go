// Relation-backed execution: the same query language over an
// already-materialized table. This is how the query subcommand
// filters the sources/accuracy-trajectory relations and how the
// cluster router merges per-member row streams — the comparator is
// the same total order the engine-backed path uses (order keys, then
// every column left to right), so a router merge of member results
// reproduces a single engine's bytes.
package query

import (
	"fmt"
	"sort"
)

// ExecuteRelation runs a query over a materialized relation. The
// disagree parameter is engine-only (it needs per-claim state) and is
// rejected here; the router clears it before merging because members
// already applied it.
func ExecuteRelation(rel *Relation, q *Query) (*Result, error) {
	if q.DisA != "" {
		return nil, fmt.Errorf("disagree applies only to the estimates relation")
	}
	allCols := make([]int, len(rel.Cols))
	for i := range allCols {
		allCols[i] = i
	}
	p, err := compile(q, rel.Cols, allCols)
	if err != nil {
		return nil, err
	}
	rows := make([][]Val, 0, len(rel.Rows))
	for _, row := range rel.Rows {
		if len(row) != len(rel.Cols) {
			return nil, fmt.Errorf("relation row has %d cells, want %d", len(row), len(rel.Cols))
		}
		if p.matchVals(row) {
			rows = append(rows, row)
		}
	}
	if p.groupIx >= 0 {
		var table groupTable
		for _, row := range rows {
			table.addVals(p, row)
		}
		return table.finalize(p), nil
	}
	sort.Slice(rows, func(i, j int) bool { return p.cmpVals(rows[i], rows[j]) < 0 })
	if q.Limit > 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	cols := p.projCols()
	out := func(yield func([]Val) bool) {
		buf := make([]Val, len(p.proj))
		for _, row := range rows {
			for i, ix := range p.proj {
				buf[i] = row[ix]
			}
			if !yield(buf) {
				return
			}
		}
	}
	return &Result{Cols: cols, Rows: out}, nil
}

// matchVals evaluates the compiled conjuncts against a relation row.
func (p *plan) matchVals(row []Val) bool {
	for i := range p.conds {
		c := &p.conds[i]
		if c.kind == KindString {
			if !c.evalStr(row[c.ix].Str) {
				return false
			}
		} else if !c.evalNum(row[c.ix].num()) {
			return false
		}
	}
	return true
}

// cmpVals is the relation-row total order: the order keys, then every
// column left to right. For relations whose first column is a unique
// key (object, source) this coincides with the engine comparator.
func (p *plan) cmpVals(a, b []Val) int {
	for _, k := range p.order {
		c := cmpVal(a[k.ix], b[k.ix])
		if k.desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	for i := range a {
		if c := cmpVal(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// addVals folds one relation row into a group table.
func (g *groupTable) addVals(p *plan, row []Val) {
	acc, fresh := g.group(p, row[p.groupIx])
	acc.count++
	for i, ix := range p.aggIx {
		if ix >= 0 {
			p.ops[i].add(&acc.accs[i], row[ix], fresh)
		}
	}
}

// Materialize drains a result into a relation (copying each reused
// row), for callers that need random access — the router's merge
// input, tests.
func Materialize(res *Result) *Relation {
	rel := &Relation{Cols: res.Cols}
	for row := range res.Rows {
		rel.Rows = append(rel.Rows, append([]Val(nil), row...))
	}
	return rel
}
