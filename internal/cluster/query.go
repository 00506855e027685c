// The router half of the relational query surface: push the query to
// every member at once, merge the partial results in node order with
// the exact fold a single N-shard engine uses. Row queries forward the
// query verbatim with the projection widened (the object key first,
// then the requested and order columns), gather each member's NDJSON
// rows, and re-run the order/limit/projection over their concatenation
// in node order — the relation comparator ties break on the object
// key, so the merged rows are byte-identical to one engine whose
// shards are the members. Group queries gather unfinalized partials
// (partial=1) and fold them in node order, the same accumulation tree
// the engine's shard-major fold builds. A query with an
// object-equality conjunct goes to the object's owning member alone:
// the others hold no row it can match.
package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/url"

	"slimfast/internal/query"
)

// estimateDefaultProj mirrors the engine relation's default projection.
var estimateDefaultProj = []string{"object", "value", "confidence"}

// memberColumns is the projection the router asks members for: the
// object key first (the merge's tie-breaker), then the query's
// projection and order columns in stable order.
func memberColumns(q *query.Query) (member []string, final []string) {
	final = q.Cols
	if len(final) == 0 {
		final = estimateDefaultProj
	}
	seen := map[string]bool{"object": true}
	member = []string{"object"}
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			member = append(member, name)
		}
	}
	for _, c := range final {
		add(c)
	}
	for _, k := range q.Order {
		add(k.Col)
	}
	return member, final
}

// estimateSchema resolves column names against the estimates relation.
func estimateSchema(names []string) ([]query.Column, error) {
	kinds := make(map[string]query.Kind)
	for _, c := range query.EstimateColumns() {
		kinds[c.Name] = c.Kind
	}
	cols := make([]query.Column, len(names))
	for i, n := range names {
		kind, ok := kinds[n]
		if !ok {
			return nil, fmt.Errorf("cluster: unknown estimate column %q", n)
		}
		cols[i] = query.Column{Name: n, Kind: kind}
	}
	return cols, nil
}

// Query scatter-gathers one relational query across the members and
// merges the results so they match a single N-shard engine bit for
// bit. Like Sources, it holds the router lock for a barrier-stable
// read.
func (r *Router) Query(ctx context.Context, q *query.Query) (*query.Result, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if q.Group != "" {
		return r.queryGroupLocked(ctx, q)
	}
	return r.queryRowsLocked(ctx, q)
}

// queryMembers lists the partitions a query must reach, in node
// order: the owner of the object a query pins with object=, otherwise
// every member. The skipped members' answers would be empty, so the
// merge and the partial fold see exactly the rows they would have.
func (r *Router) queryMembers(q *query.Query) []int {
	if obj, ok := q.ObjectKey(); ok {
		return []int{r.Partition(obj)}
	}
	return r.allParts
}

// memberQuery fetches one member's NDJSON rows for the given forward
// parameters.
func (r *Router) memberQuery(ctx context.Context, partition int, vals url.Values, cols []query.Column) ([][]query.Val, error) {
	vals.Set("format", "json")
	node := r.cfg.Nodes[partition]
	body, err := r.get(ctx, node+"/v1/estimates?"+vals.Encode())
	if err != nil {
		return nil, fmt.Errorf("cluster: partition %d query: %w", partition, err)
	}
	rows, err := query.ReadNDJSON(bytes.NewReader(body), cols)
	if err != nil {
		return nil, fmt.Errorf("cluster: partition %d query: %w", partition, err)
	}
	return rows, nil
}

// queryRowsLocked runs a non-group query: members apply the
// predicates, the disagree pair, the order and the limit; the router
// re-merges under the same total order and re-applies the limit and
// final projection.
func (r *Router) queryRowsLocked(ctx context.Context, q *query.Query) (*query.Result, error) {
	member, final := memberColumns(q)
	cols, err := estimateSchema(member)
	if err != nil {
		return nil, err
	}
	parts := make([][][]query.Val, len(r.cfg.Nodes))
	if err := r.fanOutLocked(r.queryMembers(q), func(i int) (err error) {
		parts[i], err = r.memberQuery(ctx, i, q.Values(member), cols)
		return err
	}); err != nil {
		return nil, err
	}
	rel := &query.Relation{Cols: cols}
	for _, rows := range parts {
		rel.Rows = append(rel.Rows, rows...)
	}
	merge := &query.Query{Order: q.Order, Limit: q.Limit, Cols: final}
	res, err := query.ExecuteRelation(rel, merge)
	if err != nil {
		return nil, fmt.Errorf("cluster: merging query results: %w", err)
	}
	return res, nil
}

// queryGroupLocked runs a group query: members, asked at once, return
// unfinalized partials, folded here in node order and finalized once.
func (r *Router) queryGroupLocked(ctx context.Context, q *query.Query) (*query.Result, error) {
	pcols, err := query.PartialColumns(q)
	if err != nil {
		return nil, err
	}
	parts := make([][][]query.Val, len(r.cfg.Nodes))
	if err := r.fanOutLocked(r.queryMembers(q), func(i int) (err error) {
		vals := q.Values(nil)
		vals.Set("partial", "1")
		parts[i], err = r.memberQuery(ctx, i, vals, pcols)
		return err
	}); err != nil {
		return nil, err
	}
	res, err := query.MergePartials(q, parts)
	if err != nil {
		return nil, fmt.Errorf("cluster: merging group partials: %w", err)
	}
	return res, nil
}
