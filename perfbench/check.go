package main

// Output checkers. Each one recomputes the expected answer from the input
// graph with the benchmark's own code (its own BFS, its own union-find,
// its own edge sets) and never calls the program's graph algorithms.

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"repro/internal/graph"
	"repro/internal/protocols/bfs"
	"repro/internal/protocols/buildforest"
	"repro/internal/protocols/buildkdeg"
	"repro/internal/protocols/connectivity"
)

// checkOutput dispatches on the registry name of the protocol that
// produced out. k is the spec's k parameter (the MIS root before
// clamping).
func checkOutput(protocol string, g *graph.Graph, k int, out any) error {
	name := protocol
	if rest, ok := strings.CutPrefix(protocol, "gate:"); ok {
		name, _, _ = strings.Cut(rest, ":")
	}
	switch name {
	case "bfs", "bfs-cached":
		return checkBFS(g, out)
	case "connectivity":
		return checkConnectivity(g, out)
	case "mis":
		return checkMIS(g, misRoot(k, g.N()), out)
	case "build-forest":
		d, ok := out.(buildforest.Decoded)
		if !ok {
			return fmt.Errorf("build-forest: output is %T", out)
		}
		return checkBuild(g, d.InClass, d.Forest)
	case "build-kdeg":
		d, ok := out.(buildkdeg.Decoded)
		if !ok {
			return fmt.Errorf("build-kdeg: output is %T", out)
		}
		return checkBuild(g, d.InClass, d.Graph)
	}
	return fmt.Errorf("no checker for protocol %q", protocol)
}

// misRoot is the registry's documented root rule: k clamped to [1, n].
func misRoot(k, n int) int {
	if k < 1 || k > n {
		return 1
	}
	return k
}

// refBFS is the benchmark's own BFS forest under the protocol's rules:
// components are rooted at their minimum identifier, layers count the
// distance from the root, and a node's parent is its minimum-identifier
// neighbor one layer up.
func refBFS(g *graph.Graph) (parent, layer []int, roots []int) {
	n := g.N()
	parent = make([]int, n+1)
	layer = make([]int, n+1)
	for v := range layer {
		layer[v] = -1
	}
	for r := 1; r <= n; r++ {
		if layer[r] >= 0 {
			continue
		}
		roots = append(roots, r)
		layer[r] = 0
		queue := []int{r}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(u) {
				if layer[w] < 0 {
					layer[w] = layer[u] + 1
					queue = append(queue, w)
				}
			}
		}
	}
	for v := 1; v <= n; v++ {
		if layer[v] == 0 {
			continue
		}
		for _, w := range g.Neighbors(v) {
			if layer[w] == layer[v]-1 && (parent[v] == 0 || w < parent[v]) {
				parent[v] = w
			}
		}
	}
	return parent, layer, roots
}

func checkBFS(g *graph.Graph, out any) error {
	f, ok := out.(bfs.Forest)
	if !ok {
		return fmt.Errorf("bfs: output is %T", out)
	}
	if !f.Valid {
		return fmt.Errorf("bfs: output marked invalid on a general graph")
	}
	n := g.N()
	if len(f.Parent) != n+1 || len(f.Layer) != n+1 {
		return fmt.Errorf("bfs: output has %d parents and %d layers for n=%d", len(f.Parent), len(f.Layer), n)
	}
	parent, layer, roots := refBFS(g)
	for v := 1; v <= n; v++ {
		if f.Layer[v] != layer[v] {
			return fmt.Errorf("bfs: node %d at layer %d, want %d", v, f.Layer[v], layer[v])
		}
		if f.Parent[v] != parent[v] {
			return fmt.Errorf("bfs: node %d has parent %d, want %d", v, f.Parent[v], parent[v])
		}
	}
	if !slices.Equal(slices.Sorted(slices.Values(f.Roots)), roots) {
		return fmt.Errorf("bfs: roots %v, want %v", f.Roots, roots)
	}
	return nil
}

// unionFind is a plain disjoint-set forest with path halving.
type unionFind []int

func newUnionFind(n int) unionFind {
	uf := make(unionFind, n+1)
	for i := range uf {
		uf[i] = i
	}
	return uf
}

func (uf unionFind) find(x int) int {
	for uf[x] != x {
		uf[x] = uf[uf[x]]
		x = uf[x]
	}
	return x
}

// union merges the sets of a and b and reports whether they were apart.
func (uf unionFind) union(a, b int) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	uf[ra] = rb
	return true
}

func checkConnectivity(g *graph.Graph, out any) error {
	a, ok := out.(connectivity.Answer)
	if !ok {
		return fmt.Errorf("connectivity: output is %T", out)
	}
	n := g.N()
	uf := newUnionFind(n)
	for _, e := range g.Edges() {
		uf.union(e[0], e[1])
	}
	minOf := map[int]int{}
	for v := 1; v <= n; v++ {
		r := uf.find(v)
		if m, ok := minOf[r]; !ok || v < m {
			minOf[r] = v
		}
	}
	roots := slices.Sorted(maps.Values(minOf))
	if a.Components != len(roots) || a.Connected != (len(roots) <= 1) {
		return fmt.Errorf("connectivity: %d components (connected=%v), want %d", a.Components, a.Connected, len(roots))
	}
	if !slices.Equal(slices.Sorted(slices.Values(a.Roots)), roots) {
		return fmt.Errorf("connectivity: roots %v, want %v", a.Roots, roots)
	}
	// The spanning forest must use graph edges only, close no cycle, and
	// have n − components edges, which makes it span every component.
	if len(a.SpanningForest) != n-len(roots) {
		return fmt.Errorf("connectivity: spanning forest has %d edges, want %d", len(a.SpanningForest), n-len(roots))
	}
	forest := newUnionFind(n)
	for _, e := range a.SpanningForest {
		if e[0] < 1 || e[0] > n || e[1] < 1 || e[1] > n || !g.HasEdge(e[0], e[1]) {
			return fmt.Errorf("connectivity: spanning-forest edge %v is not a graph edge", e)
		}
		if !forest.union(e[0], e[1]) {
			return fmt.Errorf("connectivity: spanning-forest edge %v closes a cycle", e)
		}
	}
	return nil
}

func checkMIS(g *graph.Graph, root int, out any) error {
	set, ok := out.([]int)
	if !ok {
		return fmt.Errorf("mis: output is %T", out)
	}
	n := g.N()
	in := make([]bool, n+1)
	for _, v := range set {
		if v < 1 || v > n || in[v] {
			return fmt.Errorf("mis: bad or repeated member %d", v)
		}
		in[v] = true
	}
	if !in[root] {
		return fmt.Errorf("mis: root %d is not in the set", root)
	}
	for v := 1; v <= n; v++ {
		covered := in[v]
		for _, w := range g.Neighbors(v) {
			if in[v] && in[w] {
				return fmt.Errorf("mis: members %d and %d are adjacent", v, w)
			}
			covered = covered || in[w]
		}
		if !covered {
			return fmt.Errorf("mis: node %d could join the set (not maximal)", v)
		}
	}
	return nil
}

// checkBuild requires the decoded graph to have exactly the input's edge
// set. Every workload feeds BUILD protocols in-class inputs only.
func checkBuild(g *graph.Graph, inClass bool, got *graph.Graph) error {
	if !inClass || got == nil {
		return fmt.Errorf("build: in-class input decoded as out of class")
	}
	if got.N() != g.N() {
		return fmt.Errorf("build: decoded %d nodes, want %d", got.N(), g.N())
	}
	want, have := edgeSet(g), edgeSet(got)
	if len(want) != len(have) {
		return fmt.Errorf("build: decoded %d edges, want %d", len(have), len(want))
	}
	for e := range want {
		if !have[e] {
			return fmt.Errorf("build: edge %v missing from the decoded graph", e)
		}
	}
	return nil
}

func edgeSet(g *graph.Graph) map[[2]int]bool {
	set := map[[2]int]bool{}
	for u := 1; u <= g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				set[[2]int{u, v}] = true
			}
		}
	}
	return set
}
