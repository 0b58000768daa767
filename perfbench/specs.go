package main

// Seeded inputs. Every workload's round — the fixed list of specs a run
// submits over and over — is a pure function of the workload name and
// --seed; the program under test only ever sees the generated specs.

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/campaign"
)

// Protocol sets. Every protocol in a set is correct on every graph family
// the set is paired with, under every model override the set is paired
// with (each override is at least as strong as each protocol's own model,
// Lemma 4), so every sampled trial must succeed. The gate wraps mis and
// silences even identifiers until half the board is written; gating lifts
// mis to SYNC.
const gateProtocol = "gate:mis:id % 2 == 1 or boardlen >= n / 2"

var (
	// allProtocols run on forests: BUILD needs a forest (build-forest) or
	// degeneracy ≤ k (build-kdeg, k = 3).
	allProtocols = []string{"bfs", "bfs-cached", "connectivity", "mis", "build-forest", "build-kdeg", gateProtocol}
	// generalProtocols run on any graph.
	generalProtocols = []string{"bfs", "bfs-cached", "connectivity", "mis", gateProtocol}
	// gridProtocols add build-kdeg: grids have degeneracy 2.
	gridProtocols = []string{"bfs", "bfs-cached", "connectivity", "mis", "build-kdeg", gateProtocol}
	// strongModels are valid for every protocol: SYNC is the strongest.
	strongModels = []string{"native", "SYNC"}
)

// specK is the spec-level k: the mis root and the build-kdeg bound.
const specK = 3

// scripts are writer-choice programs that always pick a candidate.
var scripts = []string{
	"script:round % 2 == 0 ? min(candidates) : max(candidates)",
	"script:max(candidates)",
}

// adversaryPool covers the deterministic, rotating, random, stubborn and
// scripted adversaries; stubborn victims stay below the smallest size.
var adversaryPool = []string{"min", "max", "rotor", "random", "stubborn:3", "stubborn:7", scripts[0], scripts[1]}

// pick returns k distinct elements of s in a seeded order.
func pick(rng *rand.Rand, s []string, k int) []string {
	perm := rng.Perm(len(s))
	out := make([]string, 0, k)
	for _, i := range perm[:k] {
		out = append(out, s[i])
	}
	return out
}

// deck deals a pool's elements in seeded shuffles, one after another, so
// that over any whole number of shuffles every element is dealt equally
// often: the seed decides which spec gets which adversary, model or
// family, not how often each appears in a round, and rounds of different
// seeds cost about the same.
type deck struct {
	rng   *rand.Rand
	pool  []string
	cards []string
}

func newDeck(rng *rand.Rand, pool []string) *deck { return &deck{rng: rng, pool: pool} }

// deal returns the next k elements, all distinct: when fewer than k are
// left in the current shuffle, it starts a new one.
func (d *deck) deal(k int) []string {
	if len(d.cards) < k {
		d.cards = pick(d.rng, d.pool, len(d.pool))
	}
	out := slices.Clone(d.cards[:k])
	d.cards = d.cards[k:]
	return out
}

// Rounds have a fixed make-up — which protocols run on which graph family
// at which sizes, with how many adversaries, models and seeds — and the
// seed draws the inputs: which spec gets which adversaries (and, on the
// served and fleet specs, which model override and fleet families), dealt
// from decks so that each appears equally often in every round; the base
// seed of every spec (and with it every random graph, random schedule and
// spec hash); and the mis roots. Runs with different seeds therefore do
// about the same amount of work on different inputs, which keeps the
// spread between seeds small.

// sampledTemplate is one sampled-sweep spec shape: a protocol set on one
// graph family under a set of model overrides, with the family's edge
// probability.
type sampledTemplate struct {
	protocols []string
	graph     string
	models    []string
	p         float64
}

var (
	treeAll   = sampledTemplate{allProtocols, "tree", strongModels, 0}
	forestAll = sampledTemplate{allProtocols, "forest", strongModels, 0.8}
	gnp       = sampledTemplate{generalProtocols, "gnp", strongModels, 0.05}
	connected = sampledTemplate{generalProtocols, "connected-gnp", strongModels, 0.05}
	cycle     = sampledTemplate{generalProtocols, "cycle", strongModels, 0}
	grid      = sampledTemplate{gridProtocols, "grid", strongModels, 0}
	// The weaker overrides, each at least as strong as every protocol of
	// its spec: SIMSYNC ≥ SIMSYNC (mis) ≥ SIMASYNC (BUILD); ASYNC and
	// SIMASYNC ≥ SIMASYNC.
	weakSync  = sampledTemplate{[]string{"mis", "build-forest", "build-kdeg"}, "tree", []string{"SIMSYNC"}, 0}
	weakAsync = sampledTemplate{[]string{"build-forest", "build-kdeg"}, "forest", []string{"SIMASYNC", "ASYNC"}, 0.8}
)

// sampledLevel is a group of templates run at one size.
type sampledLevel struct {
	n         int
	templates []sampledTemplate
}

// sampledLevels give the round three cost levels: 16 light specs (12 at
// n=16 over every family, and the four exhaustive ones), 24 at n=48 and 8
// heavy ones at n=96, where bfs's
// board re-parse dominates. Each heavier level holds a few families of
// similar cost in blocks of equal size, so the 50th percentile of
// turnaround falls inside the n=48 gnp block and the 90th inside the n=96
// level, never on the edge between two levels of different cost.
var sampledLevels = []sampledLevel{
	{16, []sampledTemplate{weakSync, weakAsync, treeAll, forestAll, gnp, connected, cycle, grid, treeAll, gnp, weakSync, weakAsync}},
	{48, []sampledTemplate{connected, gnp, treeAll, cycle, connected, gnp, treeAll, cycle,
		connected, gnp, treeAll, cycle, connected, gnp, treeAll, cycle,
		connected, gnp, treeAll, cycle, connected, gnp, treeAll, cycle}},
	{96, []sampledTemplate{treeAll, cycle, treeAll, cycle, treeAll, cycle, treeAll, cycle}},
}

// sampledRound is the sampled-sweep round: every level's templates, each
// spec with two seeded adversaries, its template's model overrides and one
// seed per cell, plus the light exhaustive specs.
func sampledRound(seed int64) []campaign.Spec {
	rng := rand.New(rand.NewSource(seed))
	advs := newDeck(rng, adversaryPool)
	var specs []campaign.Spec
	for li, lv := range sampledLevels {
		for _, t := range lv.templates {
			specs = append(specs, campaign.Spec{
				Name:        fmt.Sprintf("sweep-%d", len(specs)),
				Protocols:   t.protocols,
				Graphs:      []string{t.graph},
				Sizes:       []int{lv.n},
				Adversaries: advs.deal(2),
				Models:      t.models,
				BaseSeed:    rng.Int63n(1 << 40),
				K:           specK,
				P:           t.p,
			})
		}
		if li == 0 {
			specs = append(specs, exhaustiveSpecs(rng)...)
		}
	}
	return specs
}

// exhaustiveCell is one memoized exhaustive spec: a deterministic graph, a
// size, and the mis roots that are equivalent under the graph's symmetry,
// so the seed's choice among them changes the input but not the size of
// the schedule space.
type exhaustiveCell struct {
	protocol, graph string
	n               int
	roots           []int
}

// exhaustiveCells run beside the light sampled specs, a few milliseconds
// each: mis on the 7-cycle and the complete graph, where the memo saves
// 57% and 98% of the naive writes, and build-forest and bfs on n=6, where
// it saves none and the naive walk re-checks the tallies.
var exhaustiveCells = []exhaustiveCell{
	{"mis", "cycle", 7, []int{1, 2, 3, 4, 5, 6, 7}},
	{"mis", "complete", 8, []int{1, 2, 3, 4, 5, 6, 7, 8}},
	{"build-forest", "path", 6, nil},
	{"bfs", "star", 6, nil},
}

// exhaustiveMaxSteps lifts the per-job write budget above the largest
// cell's need, so no cell ends on an exhausted budget.
const exhaustiveMaxSteps = 2_000_000

// exhaustiveSpecs draws each exhaustive cell's root (protocols other than
// mis ignore k, so it only varies their spec hash).
func exhaustiveSpecs(rng *rand.Rand) []campaign.Spec {
	specs := make([]campaign.Spec, len(exhaustiveCells))
	for i, c := range exhaustiveCells {
		k := 1 + rng.Intn(c.n)
		if c.roots != nil {
			k = c.roots[rng.Intn(len(c.roots))]
		}
		specs[i] = campaign.Spec{
			Name:      fmt.Sprintf("memo-%d", i),
			Mode:      campaign.ModeExhaustive,
			Protocols: []string{c.protocol},
			Graphs:    []string{c.graph},
			Sizes:     []int{c.n},
			MaxSteps:  exhaustiveMaxSteps,
			K:         k,
		}
	}
	return specs
}

// smallProtocols are the served and fleet protocols, whose specs must
// stay cheap in engine work; all four are correct on every forest.
var smallProtocols = []string{"bfs-cached", "mis", "build-forest", "build-kdeg"}

var forestFamilies = []string{"tree", "forest", "path", "star"}

// rotate returns s rotated left by k, so specs differ in their first
// protocol (the served list filter's axis).
func rotate(s []string, k int) []string {
	k %= len(s)
	return append(append([]string(nil), s[k:]...), s[:k]...)
}

// smallSpec is the served-jobs spec of shape i: the four small protocols
// on one forest family at one size in 12…24, two seeded adversaries, one
// model, two seeds — about a millisecond of engine work, so every
// submission costs about the same.
func smallSpec(rng *rand.Rand, advs, models *deck, i int, name string) campaign.Spec {
	return campaign.Spec{
		Name:        name,
		Protocols:   rotate(smallProtocols, i),
		Graphs:      []string{forestFamilies[(i/len(smallProtocols))%len(forestFamilies)]},
		Sizes:       []int{12 + 4*(i%4)},
		Adversaries: advs.deal(2),
		Models:      models.deal(1),
		Seeds:       2,
		BaseSeed:    rng.Int63n(1 << 40),
		K:           specK,
		P:           0.2,
	}
}

// servedRound is the served-jobs round: three specs of each of the 16
// shapes smallSpec cycles through. Client c submits specs c, c+2, ….
func servedRound(seed int64) []campaign.Spec {
	rng := rand.New(rand.NewSource(seed))
	advs, models := newDeck(rng, adversaryPool), newDeck(rng, strongModels)
	specs := make([]campaign.Spec, 48)
	for i := range specs {
		specs[i] = smallSpec(rng, advs, models, i, fmt.Sprintf("served-%d", i))
	}
	return specs
}

// fillerSpecs pre-populate the stores: distinct small specs that no
// submission repeats, so listing and filtering walk a store of real size.
func fillerSpecs(seed int64, count int) []campaign.Spec {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	advs, models := newDeck(rng, adversaryPool), newDeck(rng, strongModels)
	specs := make([]campaign.Spec, count)
	for i := range specs {
		specs[i] = smallSpec(rng, advs, models, i, fmt.Sprintf("filler-%d", i))
		specs[i].Seeds = 1
		specs[i].Adversaries = specs[i].Adversaries[:1]
	}
	return specs
}

// fleetRound is the fleet-cells round: 128-cell specs (the four small
// protocols × two forest families × four sizes in 16…40 × four
// adversaries × one model), two seeds per cell.
func fleetRound(seed int64) []campaign.Spec {
	rng := rand.New(rand.NewSource(seed))
	graphs, advs, models := newDeck(rng, forestFamilies), newDeck(rng, adversaryPool), newDeck(rng, strongModels)
	specs := make([]campaign.Spec, 8)
	for i := range specs {
		specs[i] = campaign.Spec{
			Name:        fmt.Sprintf("fleet-%d", i),
			Protocols:   rotate(smallProtocols, i),
			Graphs:      graphs.deal(2),
			Sizes:       []int{16, 24, 32, 40},
			Adversaries: advs.deal(4),
			Models:      models.deal(1),
			Seeds:       2,
			BaseSeed:    rng.Int63n(1 << 40),
			K:           specK,
			P:           0.2,
		}
	}
	return specs
}
