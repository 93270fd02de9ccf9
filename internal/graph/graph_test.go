package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// path builds a path graph 0-1-2-...-(n-1).
func path(n int) *Graph {
	g := New()
	for i := 0; i < n-1; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1))
	}
	if n == 1 {
		g.AddNode(0)
	}
	return g
}

// complete builds K_n on nodes 0..n-1.
func complete(n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(NodeID(i))
		for j := i + 1; j < n; j++ {
			g.AddEdge(NodeID(i), NodeID(j))
		}
	}
	return g
}

// star builds a star with center 0 and n leaves 1..n.
func star(n int) *Graph {
	g := New()
	for i := 1; i <= n; i++ {
		g.AddEdge(0, NodeID(i))
	}
	return g
}

func randomGraph(n int, p float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(NodeID(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	return g
}

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	g.AddNode(5)
	g.AddNode(5)
	if got := g.NumNodes(); got != 1 {
		t.Fatalf("NumNodes = %d, want 1", got)
	}
}

func TestAddEdgeBasics(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 1) // duplicate, reversed
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatal("edge (1,2) should exist in both directions")
	}
	if g.Degree(1) != 1 || g.Degree(2) != 1 {
		t.Fatalf("degrees = %d,%d, want 1,1", g.Degree(1), g.Degree(2))
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	g := New()
	g.AddEdge(3, 3)
	if g.NumEdges() != 0 {
		t.Fatalf("self loop added: NumEdges = %d", g.NumEdges())
	}
	if g.HasNode(3) {
		t.Fatal("self loop should not create node")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := complete(4)
	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("edge not removed")
	}
	if g.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5", g.NumEdges())
	}
	g.RemoveEdge(0, 1) // no-op
	if g.NumEdges() != 5 {
		t.Fatalf("double remove changed count: %d", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveNode(t *testing.T) {
	g := star(5)
	g.RemoveNode(0)
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0 after removing hub", g.NumEdges())
	}
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveAbsentNode(t *testing.T) {
	g := path(3)
	g.RemoveNode(99)
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatal("removing absent node mutated graph")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := complete(3)
	c := g.Clone()
	c.AddEdge(0, 10)
	c.RemoveEdge(0, 1)
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatal("mutating clone affected original")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNodesSorted(t *testing.T) {
	g := New()
	for _, id := range []NodeID{42, 7, 19, 3} {
		g.AddNode(id)
	}
	nodes := g.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			t.Fatalf("Nodes not sorted: %v", nodes)
		}
	}
}

func TestEdgesDeterministic(t *testing.T) {
	g := randomGraph(20, 0.3, 1)
	e1 := g.Edges()
	e2 := g.Edges()
	if len(e1) != len(e2) {
		t.Fatal("edge count differs between calls")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge order not deterministic at %d: %v vs %v", i, e1[i], e2[i])
		}
	}
	for _, e := range e1 {
		if e.U >= e.V {
			t.Fatalf("edge not normalized: %v", e)
		}
	}
}

func TestBFSDistancesOnPath(t *testing.T) {
	g := path(6)
	d := g.BFSFrom(0)
	for i := 0; i < 6; i++ {
		if d[NodeID(i)] != i {
			t.Fatalf("dist[%d] = %d, want %d", i, d[NodeID(i)], i)
		}
	}
}

func TestBFSFromAbsent(t *testing.T) {
	g := path(3)
	if d := g.BFSFrom(77); len(d) != 0 {
		t.Fatalf("BFS from absent node returned %v", d)
	}
}

func TestShortestPathLen(t *testing.T) {
	g := path(5)
	g.AddEdge(10, 11) // separate component
	if n, ok := g.ShortestPathLen(0, 4); !ok || n != 4 {
		t.Fatalf("ShortestPathLen(0,4) = %d,%v want 4,true", n, ok)
	}
	if _, ok := g.ShortestPathLen(0, 10); ok {
		t.Fatal("cross-component path reported reachable")
	}
	if n, ok := g.ShortestPathLen(2, 2); !ok || n != 0 {
		t.Fatalf("self distance = %d,%v want 0,true", n, ok)
	}
}

func TestKHopEgo(t *testing.T) {
	g := path(10)
	ego := g.KHopEgo(5, 2)
	if ego.NumNodes() != 5 { // 3,4,5,6,7
		t.Fatalf("ego nodes = %d, want 5", ego.NumNodes())
	}
	if ego.NumEdges() != 4 {
		t.Fatalf("ego edges = %d, want 4", ego.NumEdges())
	}
	for _, u := range []NodeID{3, 4, 5, 6, 7} {
		if !ego.HasNode(u) {
			t.Fatalf("ego missing node %d", u)
		}
	}
}

func TestInducedSubgraphDropsOutsideEdges(t *testing.T) {
	g := complete(5)
	keep := map[NodeID]struct{}{0: {}, 1: {}, 9: {}} // 9 absent from g
	sub := g.InducedSubgraph(keep)
	if sub.NumNodes() != 2 || sub.NumEdges() != 1 {
		t.Fatalf("sub = %d nodes %d edges, want 2/1", sub.NumNodes(), sub.NumEdges())
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(10, 11)
	g.AddNode(99)
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Fatalf("component sizes = %d,%d,%d want 3,2,1",
			len(comps[0]), len(comps[1]), len(comps[2]))
	}
}

func TestLargestComponent(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(10, 11)
	lc := g.LargestComponent()
	if len(lc) != 3 {
		t.Fatalf("largest component size = %d, want 3", len(lc))
	}
	if _, ok := lc[2]; !ok {
		t.Fatal("largest component should contain node 2")
	}
	if len(New().LargestComponent()) != 0 {
		t.Fatal("empty graph should have empty largest component")
	}
}

func TestClusteringCoefficient(t *testing.T) {
	k4 := complete(4)
	for _, u := range k4.Nodes() {
		if c := k4.ClusteringCoefficient(u); c != 1 {
			t.Fatalf("K4 clustering of %d = %v, want 1", u, c)
		}
	}
	s := star(5)
	if c := s.ClusteringCoefficient(0); c != 0 {
		t.Fatalf("star hub clustering = %v, want 0", c)
	}
	if c := s.ClusteringCoefficient(1); c != 0 {
		t.Fatalf("star leaf clustering = %v, want 0 (degree 1)", c)
	}
	// Triangle plus a pendant on node 0: neighbours of 0 are {1,2,3};
	// only (1,2) connected → C = 2*1/(3*2) = 1/3.
	g := New()
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(0, 3)
	if c := g.ClusteringCoefficient(0); c < 0.333 || c > 0.334 {
		t.Fatalf("clustering = %v, want 1/3", c)
	}
}

func TestAverageClustering(t *testing.T) {
	if c := complete(5).AverageClustering(); c != 1 {
		t.Fatalf("K5 avg clustering = %v, want 1", c)
	}
	if c := path(5).AverageClustering(); c != 0 {
		t.Fatalf("path avg clustering = %v, want 0", c)
	}
	if c := New().AverageClustering(); c != 0 {
		t.Fatalf("empty avg clustering = %v, want 0", c)
	}
}

// TestAverageClusteringIsReproducible: the mean is summed in ascending
// node order, so repeated calls agree to the bit (a sum in map order
// differs in the last digits from call to call).
func TestAverageClusteringIsReproducible(t *testing.T) {
	g := randomGraph(200, 0.06, 42)
	sum := 0.0
	for _, u := range g.Nodes() {
		sum += g.ClusteringCoefficient(u)
	}
	want := sum / float64(g.NumNodes())
	for i := 0; i < 20; i++ {
		if got := g.AverageClustering(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: avg clustering = %v, want %v (the sorted-order sum)", i, got, want)
		}
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g := path(7)
	if e := g.Eccentricity(0); e != 6 {
		t.Fatalf("eccentricity(0) = %d, want 6", e)
	}
	if e := g.Eccentricity(3); e != 3 {
		t.Fatalf("eccentricity(3) = %d, want 3", e)
	}
	if d := g.Diameter(); d != 6 {
		t.Fatalf("diameter = %d, want 6", d)
	}
	if d := complete(5).Diameter(); d != 1 {
		t.Fatalf("K5 diameter = %d, want 1", d)
	}
}

func TestDensity(t *testing.T) {
	if d := complete(4).Density(); d != 1 {
		t.Fatalf("K4 density = %v, want 1", d)
	}
	if d := New().Density(); d != 0 {
		t.Fatalf("empty density = %v, want 0", d)
	}
	g := New()
	g.AddNode(1)
	if d := g.Density(); d != 0 {
		t.Fatalf("single-node density = %v, want 0", d)
	}
}

func TestDegreeHistogram(t *testing.T) {
	h := star(4).DegreeHistogram()
	if h[4] != 1 || h[1] != 4 {
		t.Fatalf("histogram = %v, want {4:1, 1:4}", h)
	}
}

// Property: for random graphs, Validate always passes and handshake lemma
// holds (sum of degrees = 2E).
func TestPropertyRandomGraphInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint8, pRaw uint8) bool {
		n := int(nRaw%40) + 2
		p := float64(pRaw%100) / 100
		g := randomGraph(n, p, seed)
		if err := g.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		sum := 0
		for _, u := range g.Nodes() {
			sum += g.Degree(u)
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS distances satisfy the triangle property along edges —
// neighbouring nodes' distances from any source differ by at most 1.
func TestPropertyBFSNeighborDistance(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(25, 0.15, seed)
		src := NodeID(int(uint64(seed) % 25))
		d := g.BFSFrom(src)
		for _, e := range g.Edges() {
			du, okU := d[e.U]
			dv, okV := d[e.V]
			if okU != okV {
				return false // one endpoint reachable, other not, but they're adjacent
			}
			if okU && abs(du-dv) > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: induced subgraph never contains edges absent from the parent.
func TestPropertyInducedSubgraphIsSubset(t *testing.T) {
	f := func(seed int64, mask uint32) bool {
		g := randomGraph(20, 0.2, seed)
		keep := make(map[NodeID]struct{})
		for i := 0; i < 20; i++ {
			if mask&(1<<uint(i)) != 0 {
				keep[NodeID(i)] = struct{}{}
			}
		}
		sub := g.InducedSubgraph(keep)
		if err := sub.Validate(); err != nil {
			return false
		}
		for _, e := range sub.Edges() {
			if !g.HasEdge(e.U, e.V) {
				return false
			}
		}
		// And completeness: every parent edge with both ends kept appears.
		for _, e := range g.Edges() {
			_, ku := keep[e.U]
			_, kv := keep[e.V]
			if ku && kv && !sub.HasEdge(e.U, e.V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: components partition the node set.
func TestPropertyComponentsPartition(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(30, 0.05, seed)
		seen := make(map[NodeID]bool)
		total := 0
		for _, comp := range g.ConnectedComponents() {
			for _, u := range comp {
				if seen[u] {
					return false
				}
				seen[u] = true
				total++
			}
		}
		return total == g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
