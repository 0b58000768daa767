package main

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/protocols/bfs"
	"repro/internal/protocols/buildforest"
	"repro/internal/protocols/buildkdeg"
	"repro/internal/protocols/connectivity"
	"repro/internal/registry"
	"repro/internal/scenario"
)

// programOutput runs a registry protocol on a registry graph under the
// min adversary and returns the graph and the successful output.
func programOutput(t *testing.T, protocol, graphName string, n, k int) (*graph.Graph, any) {
	t.Helper()
	params := registry.Params{N: n, K: k, P: 0.2, Seed: 7}
	g, err := registry.NewGraph(graphName, params, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	params.N = g.N()
	p, err := registry.NewProtocol(protocol, params)
	if err != nil {
		t.Fatal(err)
	}
	res := engine.Run(p, g, adversary.MinID{}, engine.Options{})
	if res.Status != core.Success {
		t.Fatalf("%s on %s: %v (%v)", protocol, graphName, res.Status, res.Err)
	}
	if err := checkOutput(protocol, g, k, res.Output); err != nil {
		t.Fatalf("%s on %s: checker rejects the program's correct output: %v", protocol, graphName, err)
	}
	return g, res.Output
}

// TestCheckersRejectCorruptedOutputs feeds every checker a correct output
// of the program, then deliberately corrupted copies, each of which must
// be rejected.
func TestCheckersRejectCorruptedOutputs(t *testing.T) {
	type corruption struct {
		name string
		out  any
	}
	cases := []struct {
		protocol, graph string
		n, k            int
		corrupt         func(g *graph.Graph, out any) []corruption
	}{
		{"bfs", "gnp", 24, 0, func(g *graph.Graph, out any) []corruption {
			f := out.(bfs.Forest)
			v := deepest(f.Layer)
			wrongParent := cloneForest(f)
			wrongParent.Parent[v] = v
			wrongLayer := cloneForest(f)
			wrongLayer.Layer[v]++
			lostRoot := cloneForest(f)
			lostRoot.Roots = lostRoot.Roots[1:]
			return []corruption{{"parent", wrongParent}, {"layer", wrongLayer}, {"roots", lostRoot}}
		}},
		{"bfs-cached", "tree", 20, 0, func(g *graph.Graph, out any) []corruption {
			f := cloneForest(out.(bfs.Forest))
			v := deepest(f.Layer)
			f.Parent[v] = 0
			return []corruption{{"parent", f}}
		}},
		{"connectivity", "gnp", 24, 0, func(g *graph.Graph, out any) []corruption {
			a := out.(connectivity.Answer)
			flipped := a
			flipped.Connected = !a.Connected
			short := a
			short.SpanningForest = a.SpanningForest[1:]
			fake := a
			fake.SpanningForest = append([][2]int{nonEdge(g)}, a.SpanningForest[1:]...)
			return []corruption{{"connected", flipped}, {"short forest", short}, {"non-edge", fake}}
		}},
		{"mis", "gnp", 24, 2, func(g *graph.Graph, out any) []corruption {
			set := out.([]int)
			// Dropping a non-root member leaves it uncovered; dropping the
			// root loses the one node the set must hold.
			var notMaximal, noRoot []int
			for i, v := range set {
				if v != 2 {
					noRoot = append(noRoot, v)
				}
				if v == 2 || i > 1 {
					notMaximal = append(notMaximal, v)
				}
			}
			// A neighbor of the root joins: independence breaks.
			adjacent := append(append([]int(nil), set...), g.Neighbors(2)[0])
			return []corruption{{"not maximal", notMaximal}, {"not independent", adjacent}, {"root missing", noRoot}}
		}},
		{"build-forest", "forest", 24, 0, func(g *graph.Graph, out any) []corruption {
			d := out.(buildforest.Decoded)
			missing := d.Forest.Clone()
			e := missing.Edges()[0]
			missing.RemoveEdge(e[0], e[1])
			return []corruption{{"missing edge", buildforest.Decoded{Forest: missing, InClass: true}},
				{"out of class", buildforest.Decoded{InClass: false}}}
		}},
		{"build-kdeg", "kdeg", 24, 3, func(g *graph.Graph, out any) []corruption {
			d := out.(buildkdeg.Decoded)
			extra := d.Graph.Clone()
			e := nonEdge(g)
			extra.AddEdge(e[0], e[1])
			return []corruption{{"extra edge", buildkdeg.Decoded{Graph: extra, InClass: true}}}
		}},
		{gateProtocol, "gnp", 24, 1, func(g *graph.Graph, out any) []corruption {
			return []corruption{{"empty set", []int{}}}
		}},
	}
	for _, tc := range cases {
		g, out := programOutput(t, tc.protocol, tc.graph, tc.n, tc.k)
		for _, c := range tc.corrupt(g, out) {
			if err := checkOutput(tc.protocol, g, tc.k, c.out); err == nil {
				t.Errorf("%s: checker accepted an output corrupted by %s", tc.protocol, c.name)
			}
		}
	}
}

func cloneForest(f bfs.Forest) bfs.Forest {
	return bfs.Forest{Valid: f.Valid, Parent: append([]int(nil), f.Parent...),
		Layer: append([]int(nil), f.Layer...), Roots: append([]int(nil), f.Roots...)}
}

// deepest returns a node of maximal layer (never a root on inputs with
// an edge).
func deepest(layer []int) int {
	v := 1
	for u := range layer {
		if u > 0 && layer[u] > layer[v] {
			v = u
		}
	}
	return v
}

func nonEdge(g *graph.Graph) [2]int {
	for u := 1; u <= g.N(); u++ {
		for v := u + 1; v <= g.N(); v++ {
			if !g.HasEdge(u, v) {
				return [2]int{u, v}
			}
		}
	}
	panic("complete graph")
}

// TestTimedAdversaryForwardsFault runs a scripted adversary whose
// recursion exhausts the script budget under the timing decorator: the
// run must still fail with the script's own fault, which the engine only
// sees through adversary.Faulter.
func TestTimedAdversaryForwardsFault(t *testing.T) {
	adv, err := registry.NewAdversary("script:def f(x) = f(x + 1); f(0)", registry.Params{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	var st callStats
	p, err := registry.NewProtocol("mis", registry.Params{N: 8})
	if err != nil {
		t.Fatal(err)
	}
	res := engine.Run(p, graph.Path(8), timedAdversary{inner: adv, st: &st}, engine.Options{})
	var scriptErr *scenario.Error
	if res.Status != core.Failed || !errors.As(res.Err, &scriptErr) {
		t.Fatalf("run ended %v with %v; want failed with the script fault", res.Status, res.Err)
	}
	if st.calls == 0 {
		t.Fatal("decorator timed no Choose call")
	}
}
