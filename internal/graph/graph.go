// Package graph provides an undirected graph with the structural and
// centrality analyses the S-CDN placement algorithms depend on: degree,
// clustering coefficient, betweenness and closeness centrality, k-hop ego
// networks, connected components, eccentricity, and DOT export.
//
// Node identifiers are opaque int64 values chosen by the caller. All
// iteration orders exposed by the package are deterministic (sorted by node
// ID) so that simulations and tests are reproducible.
package graph

import (
	"fmt"
	"sort"
)

// NodeID identifies a node in a Graph. IDs are assigned by the caller and
// need not be dense.
type NodeID int64

// Graph is an undirected simple graph (no self loops, no parallel edges).
// The zero value is not ready for use; call New.
type Graph struct {
	adj   map[NodeID]map[NodeID]struct{}
	edges int
}

// New returns an empty undirected graph.
func New() *Graph {
	return &Graph{adj: make(map[NodeID]map[NodeID]struct{})}
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make(map[NodeID]map[NodeID]struct{}, len(g.adj)), edges: g.edges}
	for u, nbrs := range g.adj {
		m := make(map[NodeID]struct{}, len(nbrs))
		for v := range nbrs {
			m[v] = struct{}{}
		}
		c.adj[u] = m
	}
	return c
}

// AddNode inserts a node. Adding an existing node is a no-op.
func (g *Graph) AddNode(u NodeID) {
	if _, ok := g.adj[u]; !ok {
		g.adj[u] = make(map[NodeID]struct{})
	}
}

// AddEdge inserts an undirected edge between u and v, adding either endpoint
// if absent. Self loops are ignored. Adding an existing edge is a no-op.
func (g *Graph) AddEdge(u, v NodeID) {
	if u == v {
		return
	}
	g.AddNode(u)
	g.AddNode(v)
	if _, ok := g.adj[u][v]; ok {
		return
	}
	g.adj[u][v] = struct{}{}
	g.adj[v][u] = struct{}{}
	g.edges++
}

// RemoveEdge deletes the edge between u and v if present.
func (g *Graph) RemoveEdge(u, v NodeID) {
	if _, ok := g.adj[u][v]; !ok {
		return
	}
	delete(g.adj[u], v)
	delete(g.adj[v], u)
	g.edges--
}

// RemoveNode deletes u and all incident edges.
func (g *Graph) RemoveNode(u NodeID) {
	nbrs, ok := g.adj[u]
	if !ok {
		return
	}
	for v := range nbrs {
		delete(g.adj[v], u)
		g.edges--
	}
	delete(g.adj, u)
}

// HasNode reports whether u is present.
func (g *Graph) HasNode(u NodeID) bool {
	_, ok := g.adj[u]
	return ok
}

// HasEdge reports whether the undirected edge (u,v) is present.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := g.adj[u][v]
	return ok
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int { return g.edges }

// Degree returns the number of neighbours of u (0 if absent).
func (g *Graph) Degree(u NodeID) int { return len(g.adj[u]) }

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []NodeID {
	ids := make([]NodeID, 0, len(g.adj))
	for u := range g.adj {
		ids = append(ids, u)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Neighbors returns the neighbours of u in ascending order.
func (g *Graph) Neighbors(u NodeID) []NodeID {
	nbrs := g.adj[u]
	ids := make([]NodeID, 0, len(nbrs))
	for v := range nbrs {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Edge is an undirected edge with U <= V.
type Edge struct{ U, V NodeID }

// Edges returns every edge exactly once, ordered by (U,V).
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.edges)
	for u, nbrs := range g.adj {
		for v := range nbrs {
			if u < v {
				es = append(es, Edge{u, v})
			}
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

// Density returns 2E / (N(N-1)), or 0 for graphs with fewer than two nodes.
func (g *Graph) Density() float64 {
	n := len(g.adj)
	if n < 2 {
		return 0
	}
	return 2 * float64(g.edges) / (float64(n) * float64(n-1))
}

// BFSFrom performs a breadth-first traversal from src and returns the hop
// distance of every reachable node (src included at distance 0).
func (g *Graph) BFSFrom(src NodeID) map[NodeID]int {
	dist := make(map[NodeID]int)
	if _, ok := g.adj[src]; !ok {
		return dist
	}
	dist[src] = 0
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		for v := range g.adj[u] {
			if _, seen := dist[v]; !seen {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// ShortestPathLen returns the hop count of the shortest path from u to v and
// whether v is reachable from u.
func (g *Graph) ShortestPathLen(u, v NodeID) (int, bool) {
	if u == v {
		return 0, g.HasNode(u)
	}
	d := g.BFSFrom(u)
	n, ok := d[v]
	return n, ok
}

// KHopEgo returns the subgraph induced by all nodes within k hops of seed.
func (g *Graph) KHopEgo(seed NodeID, k int) *Graph {
	dist := g.BFSFrom(seed)
	keep := make(map[NodeID]struct{})
	for u, d := range dist {
		if d <= k {
			keep[u] = struct{}{}
		}
	}
	return g.InducedSubgraph(keep)
}

// InducedSubgraph returns the subgraph induced by the node set keep. Nodes
// in keep that are absent from g are ignored.
func (g *Graph) InducedSubgraph(keep map[NodeID]struct{}) *Graph {
	sub := New()
	for u := range keep {
		if g.HasNode(u) {
			sub.AddNode(u)
		}
	}
	for u := range sub.adj {
		for v := range g.adj[u] {
			if _, ok := keep[v]; ok && u < v {
				sub.AddEdge(u, v)
			}
		}
	}
	return sub
}

// ConnectedComponents returns the connected components as node-ID slices,
// each sorted ascending, ordered by descending size then by smallest member.
func (g *Graph) ConnectedComponents() [][]NodeID {
	seen := make(map[NodeID]bool, len(g.adj))
	var comps [][]NodeID
	for _, start := range g.Nodes() {
		if seen[start] {
			continue
		}
		var comp []NodeID
		queue := []NodeID{start}
		seen[start] = true
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			comp = append(comp, u)
			for v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) > len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})
	return comps
}

// LargestComponent returns the node set of the largest connected component,
// or an empty set for an empty graph.
func (g *Graph) LargestComponent() map[NodeID]struct{} {
	set := make(map[NodeID]struct{})
	comps := g.ConnectedComponents()
	if len(comps) == 0 {
		return set
	}
	for _, u := range comps[0] {
		set[u] = struct{}{}
	}
	return set
}

// ClusteringCoefficient returns the local clustering coefficient of u: the
// fraction of pairs of u's neighbours that are themselves connected.
// Nodes with degree < 2 have coefficient 0.
func (g *Graph) ClusteringCoefficient(u NodeID) float64 {
	nbrs := g.Neighbors(u)
	k := len(nbrs)
	if k < 2 {
		return 0
	}
	links := 0
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			if g.HasEdge(nbrs[i], nbrs[j]) {
				links++
			}
		}
	}
	return 2 * float64(links) / (float64(k) * float64(k-1))
}

// AverageClustering returns the mean local clustering coefficient over all
// nodes, or 0 for an empty graph. It sums in ascending node order, so the
// float result is the same on every call.
func (g *Graph) AverageClustering() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	sum := 0.0
	for _, u := range g.Nodes() {
		sum += g.ClusteringCoefficient(u)
	}
	return sum / float64(len(g.adj))
}

// Eccentricity returns the greatest hop distance from u to any node
// reachable from u. Unreachable nodes are ignored.
func (g *Graph) Eccentricity(u NodeID) int {
	max := 0
	for _, d := range g.BFSFrom(u) {
		if d > max {
			max = d
		}
	}
	return max
}

// Diameter returns the maximum eccentricity over all nodes, considering
// only intra-component distances. O(V*(V+E)); intended for the graph sizes
// of the case study (thousands of nodes).
func (g *Graph) Diameter() int {
	max := 0
	for u := range g.adj {
		if e := g.Eccentricity(u); e > max {
			max = e
		}
	}
	return max
}

// DegreeHistogram returns a map from degree to the number of nodes with
// that degree.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for _, nbrs := range g.adj {
		h[len(nbrs)]++
	}
	return h
}

// Validate checks internal consistency (symmetric adjacency, edge count,
// no self loops) and returns a descriptive error on the first violation.
// It exists for tests and for defensive checks after bulk mutations.
func (g *Graph) Validate() error {
	count := 0
	for u, nbrs := range g.adj {
		for v := range nbrs {
			if u == v {
				return fmt.Errorf("graph: self loop at node %d", u)
			}
			if _, ok := g.adj[v][u]; !ok {
				return fmt.Errorf("graph: asymmetric edge %d->%d", u, v)
			}
			count++
		}
	}
	if count%2 != 0 {
		return fmt.Errorf("graph: odd directed edge count %d", count)
	}
	if count/2 != g.edges {
		return fmt.Errorf("graph: edge count mismatch: counted %d, recorded %d", count/2, g.edges)
	}
	return nil
}
