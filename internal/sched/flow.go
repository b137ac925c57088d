package sched

import "math"

// flowNet is the community program's transportation network, built once per
// scheduler:
//
//	source → principal i        capacity set per solve (L_i(θ), then n_i)
//	principal i → owner k       MI[k][i]+OI[k][i], only where positive
//	owner k → sink              min(V_k, c_k)
//
// A flow is a window plan: the flow on i → k is X[i][k]. Edges are stored in
// pairs, forward at an even index e and its residual reverse at e^1, so a
// solve only rewrites capacities and flows in place and allocates nothing.
// Max-flow is Dinic's: BFS levels over the residual graph, then blocking
// flows by DFS with a current-arc pointer per node. Adjacency lists run in
// ascending principal and owner index, so among equally short augmenting
// paths the lowest-numbered owner is filled first, which keeps a lightly
// loaded principal on one owner.
type flowNet struct {
	n         int // principals (= owners); nodes: s, principals, owners, t
	src, sink int

	to   []int32
	cap  []float64
	flow []float64

	first []int32 // CSR: node v's edges are adj[first[v]:first[v+1]]
	adj   []int32

	srcEdge  []int32 // forward edge s → i, per principal
	sinkEdge []int32 // forward edge k → t, per owner (-1: no entitled pair)
	pairs    []pairEdge
	outDeg   []int32 // entitled owners per principal

	level []int32
	cur   []int32 // current-arc pointer per node
	queue []int32
}

// pairEdge locates the forward edge carrying principal i's traffic to owner k.
type pairEdge struct {
	i, k int
	e    int32
}

func principalNode(i int) int          { return 1 + i }
func ownerNode(n, k int) int           { return 1 + n + k }
func (g *flowNet) res(e int32) float64 { return g.cap[e] - g.flow[e] }

// newFlowNet builds the network for entitlement bounds hi(i, k) and owner
// capacities u[k].
func newFlowNet(n int, hi func(i, k int) float64, u []float64) flowNet {
	g := flowNet{n: n, src: 0, sink: 2*n + 1}
	nodes := 2*n + 2
	var from []int32
	add := func(a, b int, c float64) int32 {
		e := int32(len(g.to))
		g.to = append(g.to, int32(b), int32(a))
		g.cap = append(g.cap, c, 0)
		from = append(from, int32(a), int32(b))
		return e
	}
	g.srcEdge = make([]int32, n)
	g.outDeg = make([]int32, n)
	for i := 0; i < n; i++ {
		g.srcEdge[i] = add(g.src, principalNode(i), 0)
	}
	hasIn := make([]bool, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			if c := hi(i, k); c > 0 {
				g.pairs = append(g.pairs, pairEdge{i: i, k: k, e: add(principalNode(i), ownerNode(n, k), c)})
				g.outDeg[i]++
				hasIn[k] = true
			}
		}
	}
	g.sinkEdge = make([]int32, n)
	for k := 0; k < n; k++ {
		g.sinkEdge[k] = -1
		if hasIn[k] {
			g.sinkEdge[k] = add(ownerNode(n, k), g.sink, u[k])
		}
	}
	g.flow = make([]float64, len(g.to))

	// Adjacency order: s lists principals ascending; a principal its owners
	// ascending (the reverse edge to s last); an owner its sink edge first,
	// then the reverse edges to its principals ascending.
	g.first = make([]int32, nodes+1)
	for _, v := range from {
		g.first[v+1]++
	}
	for v := 0; v < nodes; v++ {
		g.first[v+1] += g.first[v]
	}
	g.adj = make([]int32, len(g.to))
	fill := append([]int32(nil), g.first[:nodes]...)
	push := func(e int32) { v := from[e]; g.adj[fill[v]] = e; fill[v]++ }
	for i := 0; i < n; i++ {
		push(g.srcEdge[i])
	}
	for _, p := range g.pairs { // grouped by principal, owners ascending
		push(p.e)
	}
	for i := 0; i < n; i++ {
		push(g.srcEdge[i] ^ 1)
	}
	for _, e := range g.sinkEdge {
		if e >= 0 {
			push(e)
		}
	}
	for _, p := range g.pairs { // per owner, principals ascending
		push(p.e ^ 1)
	}
	for _, e := range g.sinkEdge {
		if e >= 0 {
			push(e ^ 1)
		}
	}
	g.level = make([]int32, nodes)
	g.cur = make([]int32, nodes)
	g.queue = make([]int32, nodes)
	return g
}

// reset zeroes every flow.
func (g *flowNet) reset() {
	for e := range g.flow {
		g.flow[e] = 0
	}
}

// maxflow augments the current flow to a maximum one, treating residuals at
// or below eps as saturated. On return level[v] >= 0 exactly for the nodes
// reachable from s in the residual graph: the source side of a minimum cut.
func (g *flowNet) maxflow(eps float64) {
	for g.bfs(eps) {
		copy(g.cur, g.first[:len(g.cur)])
		for g.dfs(g.src, math.Inf(1), eps) > 0 {
		}
	}
}

func (g *flowNet) bfs(eps float64) bool {
	for v := range g.level {
		g.level[v] = -1
	}
	g.level[g.src] = 0
	g.queue[0] = int32(g.src)
	for h, t := 0, 1; h < t; h++ {
		v := g.queue[h]
		for _, e := range g.adj[g.first[v]:g.first[v+1]] {
			if w := g.to[e]; g.level[w] < 0 && g.res(e) > eps {
				g.level[w] = g.level[v] + 1
				g.queue[t] = w
				t++
			}
		}
	}
	return g.level[g.sink] >= 0
}

func (g *flowNet) dfs(v int, limit, eps float64) float64 {
	if v == g.sink {
		return limit
	}
	for ; g.cur[v] < g.first[v+1]; g.cur[v]++ {
		e := g.adj[g.cur[v]]
		w := int(g.to[e])
		r := g.res(e)
		if r <= eps || g.level[w] != g.level[v]+1 {
			continue
		}
		if d := g.dfs(w, math.Min(limit, r), eps); d > 0 {
			g.flow[e] += d
			g.flow[e^1] -= d
			return d
		}
	}
	return 0
}

// sourceFlow is the flow leaving s, i.e. into principal i.
func (g *flowNet) sourceFlow(i int) float64 { return g.flow[g.srcEdge[i]] }

// cutCapacity is the capacity of the last min cut not counting source edges:
// cut(S) for S the reachable principals.
func (g *flowNet) cutCapacity() float64 {
	c := 0.0
	for _, p := range g.pairs {
		if g.level[principalNode(p.i)] >= 0 && g.level[ownerNode(g.n, p.k)] < 0 {
			c += g.cap[p.e]
		}
	}
	for k, e := range g.sinkEdge {
		if e >= 0 && g.level[ownerNode(g.n, k)] >= 0 {
			c += g.cap[e]
		}
	}
	return c
}
