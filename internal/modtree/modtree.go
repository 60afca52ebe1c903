// Package modtree implements the fine-grained modification tree of
// Chapter 6: TRAVERSESEARCHTREE and its evaluation baselines. The search
// loop — deterministic frontier, budgeted execution, executed-candidate
// dedup, cancellation — is the shared kernel of internal/search; this
// package contributes the strategy: the fine-grained modification operators
// (§6.2.2), the non-contributing-change pruning (§6.3.2), and the tree
// orderings. The baselines of §6.4.1 share the traversal as well as the
// operator space: the exhaustive enumeration is TRAVERSESEARCHTREE's loop
// without pruning or prioritization, and the random walk restarts from the
// same root.
package modtree

import (
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/search"
	"repro/internal/stats"
)

// Options tunes TRAVERSESEARCHTREE and its baselines. The embedded
// search.Control supplies the kernel knobs — Ctx, MaxExecuted (0 = 300),
// CountCap (0 = derived from the goal's upper bound, at least 1000),
// Metrics — via field promotion.
type Options struct {
	search.Control
	// Goal is the cardinality interval the rewriting must reach.
	Goal metrics.Interval
	// MaxDepth caps stacked modifications (0 = 6).
	MaxDepth int
	// AllowTopology enables edge/vertex level changes alongside the
	// value-level predicate changes (§6.4.3, topology consideration).
	AllowTopology bool
	// Domain supplies replacement values for predicate extension; without
	// it only removal-style modifications are available.
	Domain *stats.Domain
	// ValuesPerPredicate caps domain values tried per predicate (0 = 3).
	ValuesPerPredicate int
}

func (o *Options) fill() {
	if o.MaxExecuted == 0 {
		o.MaxExecuted = 300
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 6
	}
	if o.ValuesPerPredicate == 0 {
		o.ValuesPerPredicate = 3
	}
	if o.CountCap == 0 {
		o.CountCap = 1000
		if o.Goal.Upper > 0 && o.Goal.Upper >= 1000 {
			o.CountCap = o.Goal.Upper * 2
		}
	}
}

// Node is a modification-tree node (§6.1.3).
type Node struct {
	// Query is the rewritten query at this node.
	Query *query.Query
	// Ops is the modification sequence from the original query.
	Ops []query.Op
	// Cardinality is the node's (possibly capped) result size.
	Cardinality int
	// Distance is the cardinality distance to the goal interval.
	Distance int
	// Syntactic is the syntactic distance to the original query.
	Syntactic float64
	// Depth is the number of stacked modifications.
	Depth int
	// Demoted marks a non-contributing change (§6.3.2): the node expands
	// only after every contributing branch, so a change that needs a
	// coordinated follow-up on a dependent element (§6.3.1, change
	// propagation) still gets one instead of dead-ending the search.
	Demoted bool

	// op is the modification that produces this node from its parent; the
	// node is derived — op applied, Query and key set — on first demand.
	op      query.Op
	derived bool
	// key caches the query's binary canonical key (the executed-query cache
	// key, derived incrementally from the parent's key on generation). It
	// stays empty when op turned out inapplicable.
	key string
}

// nodeLess is the frontier's strict order: contributing before demoted,
// then smaller cardinality distance, smaller syntactic distance, smaller
// depth. Remaining ties fall back to the kernel's insertion-sequence
// tie-break, so the expansion order is a total order independent of the
// heap's internal layout.
func nodeLess(a, b *Node) bool {
	if a.Demoted != b.Demoted {
		return !a.Demoted
	}
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	if a.Syntactic != b.Syntactic {
		return a.Syntactic < b.Syntactic
	}
	return a.Depth < b.Depth
}

// Result reports a fine-grained modification run.
type Result struct {
	// Best is the found rewriting with the smallest cardinality distance
	// (ties: smaller syntactic distance).
	Best Node
	// Satisfied reports whether Best reaches the goal interval.
	Satisfied bool
	// Executed counts candidate executions.
	Executed int
	// Generated counts generated tree nodes: for TraverseSearchTree and
	// Exhaustive the executed nodes, root included; RandomWalk also counts
	// the steps whose query an earlier walk already executed.
	Generated int
	// Pruned counts discarded non-contributing changes and branches
	// (§6.3.2).
	Pruned int
	// Trace records the best-so-far cardinality distance after every
	// execution (convergence series, §6.4.2). The slice is owned by the
	// Result.
	Trace []int
}

// Searcher runs fine-grained modifications over one data graph.
// A Searcher reuses one search-kernel executor (matching context, dedup
// scratch) across all candidate executions of its searches, so it must not
// be shared between goroutines.
type Searcher struct {
	m  *match.Matcher
	ex *search.Executor
	// pq is TraverseSearchTree's frontier (nodeLess); fifo is Exhaustive's,
	// whose order ranks no node first, so the kernel's insertion-sequence
	// tie-break pops it breadth-first.
	pq, fifo *search.Frontier[*Node]
}

// New returns a searcher over the matcher. The tree ranks nodes by executed
// cardinalities, not estimates, so it reads nothing from the statistics
// collector; New takes one like the other strategies' constructors do.
func New(m *match.Matcher, _ *stats.Collector) *Searcher {
	return &Searcher{
		m: m, ex: search.NewExecutor(m),
		pq:   search.NewFrontier(nodeLess),
		fifo: search.NewFrontier(func(a, b *Node) bool { return false }),
	}
}

// expand lists the parent's children in enumeration order, one per
// modification, none derived yet: the goal is usually reached mid-expansion,
// so a child is derived only when the traversal gets to it.
func (s *Searcher) expand(parent *Node, opts Options) []*Node {
	ops := s.Modifications(parent.Query, parent.Cardinality, opts)
	nodes, children := make([]Node, len(ops)), make([]*Node, len(ops))
	for i, op := range ops {
		nodes[i] = Node{Depth: parent.Depth + 1, op: op}
		children[i] = &nodes[i]
	}
	return children
}

// derive applies n.op to the parent on first use and returns the child's key,
// empty when the operation is inapplicable — the traversals skip such a node.
func derive(parent, n *Node) string {
	if !n.derived {
		n.derived = true
		if q, key, err := query.ApplyKeyed(parent.Query, parent.key, n.op); err == nil {
			n.Query, n.key = q, key
		}
	}
	return n.key
}

// execute sets n's cardinality and goal distance: the value of an equivalent
// node already executed this run, else one budgeted execution of n.Query. It
// reports false, with cardinality 0, once the search must stop.
func (s *Searcher) execute(n *Node, opts *Options) bool {
	card, ok := s.ex.Cached(n.key)
	if !ok {
		card, ok = s.ex.Execute(n.key, func(ctx *match.Ctx) int {
			return match.CountKeyed(s.m, ctx, n.key, opts.CountCap, func() *query.Query { return n.Query })
		})
	}
	n.Cardinality, n.Distance = card, opts.Goal.Distance(card)
	return ok
}

// finish copies the kernel's run records into the result and flushes the
// kernel counters — shared by every search variant's return paths.
func (s *Searcher) finish(res *Result) {
	res.Executed = s.ex.Executions()
	res.Trace = append([]int(nil), s.ex.Trace()...)
	s.ex.End()
}

// root begins a run and executes its root: a clone of q, which every node
// derives from copy-on-write, so measuring against it (not the caller's q)
// lets the distance skip what they share. It reports false when the run is
// already over — stopped before the root executed (res stays the zero
// result) or the root meets the goal.
func (s *Searcher) root(q *query.Query, opts *Options, res *Result) (*Node, bool) {
	opts.fill()
	s.ex.Begin(opts.Control)
	root := &Node{Query: q.Clone()}
	root.key = root.Query.Key()
	if !s.execute(root, opts) {
		return nil, false
	}
	res.Best, res.Generated = *root, 1
	res.Satisfied = opts.Goal.Contains(root.Cardinality)
	s.ex.Record(res.Best.Distance)
	return root, !res.Satisfied
}

// TraverseSearchTree is the thesis' TRAVERSESEARCHTREE algorithm (§6.2.1):
// best-first expansion of the modification tree toward the goal interval.
// Every candidate is re-planned and re-executed in full, which guarantees
// the propagation of each change through all downstream operators (§6.3.1);
// children whose cardinality equals their parent's are non-contributing and
// are discarded with their branches (§6.3.2).
func (s *Searcher) TraverseSearchTree(q *query.Query, opts Options) Result {
	return s.traverse(q, opts, s.pq, true)
}

// Exhaustive is the §6.4.1 enumeration baseline: TRAVERSESEARCHTREE without
// pruning or prioritization — breadth-first expansion of the same operator
// space.
func (s *Searcher) Exhaustive(q *query.Query, opts Options) Result {
	return s.traverse(q, opts, s.fifo, false)
}

// traverse is the modification-tree loop: pop a node from pq, execute its
// children, keep the best, and stop at the first child in the goal. With
// prune, a non-contributing child is counted in Pruned and demoted.
func (s *Searcher) traverse(q *query.Query, opts Options, pq *search.Frontier[*Node], prune bool) (res Result) {
	defer s.finish(&res)
	root, ok := s.root(q, &opts, &res)
	if !ok {
		return res
	}
	ex := s.ex
	pq.Reset()
	pq.Push(root)
	for pq.Len() > 0 && !ex.Stopped() {
		parent, _ := pq.Pop()
		if parent.Depth >= opts.MaxDepth {
			continue
		}
		for _, child := range s.expand(parent, opts) {
			if derive(parent, child) == "" || ex.Seen(child.key) {
				continue
			}
			child.Ops = append(append([]query.Op(nil), parent.Ops...), child.op)
			if !s.execute(child, &opts) {
				break
			}
			res.Generated++
			child.Syntactic = metrics.SyntacticDistance(root.Query, child.Query)
			emptied := opts.Goal.Lower >= 1 && child.Cardinality == 0 && parent.Cardinality > 0
			if prune && (child.Cardinality == parent.Cardinality || emptied) {
				// Non-contributing change (§6.3.2) — or one that emptied the
				// result, which can never be the explanation of a non-empty
				// goal: demote the branch so it only expands when no
				// contributing branch is left, giving dependent elements a
				// chance to propagate the change (§6.3.1) without letting
				// dead changes lead the search. Neither kind is in the goal.
				res.Pruned++
				child.Demoted = true
			} else if better(child, &res.Best) {
				res.Best = *child
				ex.Improved(search.Candidate{Query: child.Query, Ops: child.Ops, Cardinality: child.Cardinality, Distance: child.Distance})
			}
			ex.Record(res.Best.Distance)
			if opts.Goal.Contains(child.Cardinality) {
				res.Satisfied = true
				return res
			}
			pq.Push(child)
		}
	}
	return res
}

func better(a, b *Node) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.Syntactic < b.Syntactic
}

// sortedAttrs returns a predicate map's attribute names in sorted order, so
// modification enumeration — and with it the whole search — is deterministic
// across runs (Go map range order is randomized).
func sortedAttrs(preds map[string]query.Predicate) []string {
	attrs := make([]string, 0, len(preds))
	for a := range preds {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	return attrs
}

// vertexKind extracts the entity kind from a vertex's type predicate when
// it pins a single string value.
func vertexKind(v *query.Vertex) string {
	p, ok := v.Preds["type"]
	if !ok || p.Kind != query.Values || len(p.Vals) != 1 {
		return ""
	}
	if p.Vals[0].Kind != graph.KindString {
		return ""
	}
	return p.Vals[0].Str
}

// Modifications enumerates the fine-grained operations applicable at a node,
// directed by where the node's cardinality lies relative to the goal: below
// the interval → relaxations (§6.2.2 generates candidates that enlarge the
// result), above → concretizations. On the boundary both sides are offered,
// which lets the search oscillate around the threshold (Fig. 3.1).
func (s *Searcher) Modifications(q *query.Query, card int, opts Options) []query.Op {
	kind := opts.Goal.Classify(card)
	var ops []query.Op
	if kind == metrics.WhyEmpty || kind == metrics.WhySoFew {
		ops = append(ops, s.relaxOps(q, opts)...)
	}
	if kind == metrics.WhySoMany {
		ops = append(ops, s.concretizeOps(q, opts)...)
	}
	if kind == metrics.Satisfied {
		ops = append(ops, s.relaxOps(q, opts)...)
		ops = append(ops, s.concretizeOps(q, opts)...)
	}
	return ops
}

// relaxOps are value-level relaxations: extend predicate disjunctions with
// domain values, widen ranges, add sibling edge types, drop directions, and
// — with topology enabled — drop whole predicates, edges, or leaf vertices.
func (s *Searcher) relaxOps(q *query.Query, opts Options) []query.Op {
	var ops []query.Op
	addExtend := func(t query.Target, p query.Predicate, domainVals []graph.Value) {
		added := 0
		for _, v := range domainVals {
			if added >= opts.ValuesPerPredicate {
				break
			}
			if p.Matches(v) {
				continue
			}
			ops = append(ops, query.ExtendPredicate{On: t, Value: v})
			added++
		}
	}
	for _, v := range q.Vertices() {
		for _, attr := range sortedAttrs(v.Preds) {
			p := v.Preds[attr]
			t := query.Target{Kind: query.TargetVertex, ID: v.ID, Attr: attr}
			if p.Kind == query.Range {
				ops = append(ops, query.WidenRange{On: t, Delta: 1})
			} else if opts.Domain != nil {
				addExtend(t, p, opts.Domain.VertexValues[attr])
			}
			ops = append(ops, query.DeletePredicate{On: t})
		}
	}
	for _, e := range q.Edges() {
		eid := e.ID
		for _, attr := range sortedAttrs(e.Preds) {
			p := e.Preds[attr]
			t := query.Target{Kind: query.TargetEdge, ID: eid, Attr: attr}
			if p.Kind == query.Range {
				ops = append(ops, query.WidenRange{On: t, Delta: 1})
			} else if opts.Domain != nil {
				addExtend(t, p, opts.Domain.EdgeValues[attr])
			}
			ops = append(ops, query.DeletePredicate{On: t})
		}
		if len(e.Types) > 0 && opts.Domain != nil {
			added := 0
			for _, typ := range opts.Domain.EdgeTypes {
				if added >= opts.ValuesPerPredicate {
					break
				}
				if !e.HasType(typ) {
					ops = append(ops, query.AddType{Edge: eid, Type: typ})
					added++
				}
			}
		}
		if e.Dirs != query.Both {
			ops = append(ops, query.DeleteDirection{Edge: eid})
		}
		if opts.AllowTopology && q.NumEdges() > 1 {
			ops = append(ops, query.DeleteEdge{Edge: eid})
		}
	}
	if opts.AllowTopology && q.NumVertices() > 1 {
		for _, v := range q.Vertices() {
			if q.Degree(v.ID) <= 1 {
				ops = append(ops, query.DeleteVertex{Vertex: v.ID})
			}
		}
	}
	return ops
}

// concretizeOps are value-level concretizations: shrink disjunctions, narrow
// ranges, drop disjunction types, pin directions, and — with topology — add
// predicates or edges from the domain.
func (s *Searcher) concretizeOps(q *query.Query, opts Options) []query.Op {
	var ops []query.Op
	for _, v := range q.Vertices() {
		vid := v.ID
		for _, attr := range sortedAttrs(v.Preds) {
			p := v.Preds[attr]
			t := query.Target{Kind: query.TargetVertex, ID: vid, Attr: attr}
			if p.Kind == query.Range {
				ops = append(ops, query.NarrowRange{On: t, Delta: 1})
			} else if len(p.Vals) > 1 {
				for i, val := range p.Vals {
					if i >= opts.ValuesPerPredicate {
						break
					}
					ops = append(ops, query.ShrinkPredicate{On: t, Value: val})
				}
			}
		}
		// Introduce new predicates from the domain on unconstrained attrs,
		// restricted to attributes the vertex's entity kind actually has.
		if opts.Domain != nil {
			kind := vertexKind(v)
			for _, attr := range opts.Domain.VertexAttrs(kind) {
				if _, constrained := v.Preds[attr]; constrained {
					continue
				}
				vals := opts.Domain.VertexAttrValues(kind, attr)
				limit := opts.ValuesPerPredicate
				if limit > len(vals) {
					limit = len(vals)
				}
				for _, val := range vals[:limit] {
					ops = append(ops, query.InsertPredicate{
						On:   query.Target{Kind: query.TargetVertex, ID: vid, Attr: attr},
						Pred: query.Eq(val),
					})
				}
			}
		}
	}
	for _, e := range q.Edges() {
		eid := e.ID
		for _, attr := range sortedAttrs(e.Preds) {
			p := e.Preds[attr]
			t := query.Target{Kind: query.TargetEdge, ID: eid, Attr: attr}
			if p.Kind == query.Range {
				ops = append(ops, query.NarrowRange{On: t, Delta: 1})
			} else if len(p.Vals) > 1 {
				for i, val := range p.Vals {
					if i >= opts.ValuesPerPredicate {
						break
					}
					ops = append(ops, query.ShrinkPredicate{On: t, Value: val})
				}
			}
		}
		if len(e.Types) > 1 {
			for _, typ := range e.Types {
				ops = append(ops, query.RemoveType{Edge: eid, Type: typ})
			}
		}
		if e.Dirs == query.Both {
			ops = append(ops, query.SetDirection{Edge: eid, Dirs: query.Forward})
			ops = append(ops, query.SetDirection{Edge: eid, Dirs: query.Backward})
		}
	}
	if opts.AllowTopology && opts.Domain != nil && len(opts.Domain.EdgeTypes) > 0 {
		vs := q.Vertices()
		for i := 0; i < len(vs) && i < 3; i++ {
			for j := 0; j < len(vs) && j < 3; j++ {
				if i == j {
					continue
				}
				ops = append(ops, query.InsertEdge{From: vs[i].ID, To: vs[j].ID, Types: opts.Domain.EdgeTypes[:1]})
			}
		}
	}
	return ops
}

// RandomWalk is the §6.4.1 random baseline: chains of randomly chosen
// applicable modifications, restarted from the original query.
func (s *Searcher) RandomWalk(q *query.Query, opts Options, seed int64) (res Result) {
	defer s.finish(&res)
	root, ok := s.root(q, &opts, &res)
	if !ok {
		return res
	}
	rng := rand.New(rand.NewSource(seed))
	ex := s.ex
	for !ex.Stopped() {
		cur := *root
		for depth := 0; depth < opts.MaxDepth && ex.Remaining() > 0; depth++ {
			avail := s.Modifications(cur.Query, cur.Cardinality, opts)
			if len(avail) == 0 {
				break
			}
			next := Node{Depth: depth + 1, op: avail[rng.Intn(len(avail))]}
			if derive(&cur, &next) == "" {
				continue
			}
			if !s.execute(&next, &opts) {
				break
			}
			res.Generated++
			next.Ops = append(append([]query.Op(nil), cur.Ops...), next.op)
			next.Syntactic = metrics.SyntacticDistance(root.Query, next.Query)
			cur = next
			if better(&cur, &res.Best) {
				res.Best = cur
				ex.Improved(search.Candidate{Query: cur.Query, Ops: cur.Ops, Cardinality: cur.Cardinality, Distance: cur.Distance})
			}
			ex.Record(res.Best.Distance)
			if opts.Goal.Contains(cur.Cardinality) {
				res.Satisfied = true
				return res
			}
		}
	}
	return res
}
