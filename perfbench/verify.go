package main

// The verification phase and the traced replay. After the timed phase,
// every distinct round spec is run in-process once more (the reference),
// its report is checked against properties that hold for any correct
// program, and its jobs are replayed through the layers' public functions
// one by one, so every output can be checked by the benchmark's own
// computations and every cell tally compared with the replay's.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"slices"
	"strings"

	"repro/internal/adversary"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/registry"
	"repro/internal/telemetry"
)

// Component salts of the campaign's per-job sub-seeds ("protocol",
// "adversa"); the replay must hand each component the seed the campaign
// hands it.
const (
	protocolSalt  = 0x70726F746F636F6C
	adversarySalt = 0x61647665727361
)

// subSeed mirrors the campaign's seed derivation: a splitmix64 finalizer
// of seed^salt, folded to a positive non-zero int64.
func subSeed(seed int64, salt uint64) int64 {
	x := uint64(seed) ^ salt
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	s := int64(x &^ (1 << 63))
	if s == 0 {
		s = 1
	}
	return s
}

// replayMode selects how much a replay does besides running the jobs.
type replayMode int

const (
	// replayPlain constructs and runs every job and nothing else; its wall
	// time is the engine path the campaign runner wraps.
	replayPlain replayMode = iota
	// replayCheck also checks every output and compares every cell tally
	// with the reference report.
	replayCheck
	// replayTraced is replayCheck with timing decorators and spans.
	replayTraced
)

// replayStats accumulates the traced replay's per-layer tallies.
type replayStats struct {
	trials      int
	proto       protoStats
	perProto    map[string]int64 // protocol ns by protoKey
	protoTrials map[string]int
	adv         callStats
	engine      *telemetry.EngineMetrics
	mallocs     uint64
	allocBytes  uint64
	memoTrials  int
	classes     int64
	naiveSteps  float64
	savedSteps  float64
}

func newReplayStats() *replayStats {
	return &replayStats{perProto: map[string]int64{}, protoTrials: map[string]int{},
		engine: telemetry.NewSet().Engine}
}

// protoKey names a registry protocol for the per-protocol metrics.
func protoKey(name string) string {
	if strings.HasPrefix(name, "gate:") {
		return "gate"
	}
	return name
}

// cellTally is the replay's own aggregation of one sampled cell.
type cellTally struct {
	runs, success, deadlock, failed int
	roundsMin, roundsMax            int
	bitsMin, bitsMax, maxMsg        int
	schedules, sSuccess, sDeadlock  int
	sFailed, steps, classes, saved  int
}

func (c *cellTally) addRun(rounds, bits, maxMsg int) {
	if c.runs == 1 || rounds < c.roundsMin {
		c.roundsMin = rounds
	}
	if c.runs == 1 || bits < c.bitsMin {
		c.bitsMin = bits
	}
	c.roundsMax = max(c.roundsMax, rounds)
	c.bitsMax = max(c.bitsMax, bits)
	c.maxMsg = max(c.maxMsg, maxMsg)
}

// replay runs spec's jobs one by one through registry construction and
// the engine. In check and traced modes it checks every successful
// output and compares the tallies with ref, the in-process report of the
// same spec.
func (b *bench) replay(spec campaign.Spec, ref *campaign.Report, mode replayMode, st *replayStats) error {
	spec = spec.Normalize()
	sub := 0
	var tr *tracer
	if mode == replayTraced {
		sub, tr = b.nextSub(), b.tr
	}
	tallies := make([]cellTally, spec.NumCells())
	rng := rand.New(rand.NewSource(1))
	runner := engine.NewRunner()
	var ms0, ms1 runtime.MemStats
	for _, job := range spec.Expand() {
		params := registry.Params{N: job.N, K: spec.K, P: spec.P, Seed: job.Seed}
		if !spec.Exhaustive() {
			params.Script = spec.Script
		}
		rng.Seed(job.Seed)
		sp := tr.start("registry.NewGraph", 0, sub)
		g, err := registry.NewGraph(job.Graph, params, rng)
		tr.end(sp, 0)
		if err != nil {
			return err
		}
		params.N = g.N()
		params.Seed = subSeed(job.Seed, protocolSalt)
		sp = tr.start("registry.NewProtocol", 0, sub)
		proto, err := registry.NewProtocol(job.Protocol, params)
		tr.end(sp, 0)
		if err != nil {
			return err
		}
		model, err := registry.ParseModel(job.Model)
		if err != nil {
			return err
		}
		ps := &protoStats{}
		if mode == replayTraced {
			proto = timedProtocol{inner: proto, st: ps}
			runtime.ReadMemStats(&ms0)
		}
		opts := engine.Options{Model: model, MaxRounds: spec.MaxRounds}
		if st != nil {
			opts.Metrics = st.engine
		}
		tally := &tallies[job.Cell]
		tally.runs++
		var advStats callStats
		// Outputs are checked after the engine call and its allocation
		// count, so neither includes the benchmark's own checking.
		var outputs []any
		if spec.Exhaustive() {
			sp = tr.start("engine.RunAllMemo", 0, sub)
			mstats, err := engine.RunAllMemo(proto, g, opts, spec.MaxSteps, func(res *core.Result, mult *big.Int) error {
				w, err := engine.IntFromBig(mult)
				if err != nil {
					return err
				}
				tally.schedules += w
				switch res.Status {
				case core.Success:
					tally.sSuccess += w
					if mode != replayPlain {
						outputs = append(outputs, res.Output)
					}
				case core.Deadlock:
					tally.sDeadlock += w
				default:
					tally.sFailed += w
				}
				return nil
			})
			tr.end(sp, ps.ns())
			if err != nil {
				return fmt.Errorf("replay %s on %s n=%d: %w", job.Protocol, job.Graph, job.N, err)
			}
			tally.steps += mstats.Steps
			tally.classes += mstats.Classes
			naive, _ := new(big.Float).SetInt(mstats.NaiveSteps).Float64()
			saved := new(big.Int).Sub(mstats.NaiveSteps, big.NewInt(int64(mstats.Steps)))
			if v, err := engine.IntFromBig(saved); err == nil {
				tally.saved += v
			}
			if st != nil {
				st.memoTrials++
				st.classes += int64(mstats.Classes)
				st.naiveSteps += naive
				st.savedSteps += naive - float64(mstats.Steps)
			}
			if tally.sSuccess == tally.schedules {
				tally.success++
			}
		} else {
			params.Seed = subSeed(job.Seed, adversarySalt)
			sp = tr.start("registry.NewAdversary", 0, sub)
			var adv adversary.Adversary
			adv, err = registry.NewAdversary(job.Adversary, params)
			tr.end(sp, 0)
			if err != nil {
				return err
			}
			if mode == replayTraced {
				adv = timedAdversary{inner: adv, st: &advStats}
			}
			sp = tr.start("engine.Runner.Run", 0, sub)
			res := runner.Run(proto, g, adv, opts)
			tr.end(sp, ps.ns()+advStats.ns)
			switch res.Status {
			case core.Success:
				tally.success++
				if mode != replayPlain {
					outputs = append(outputs, res.Output)
				}
			case core.Deadlock:
				tally.deadlock++
			default:
				tally.failed++
			}
			tally.addRun(res.Rounds, res.Board.TotalBits(), res.MaxBits)
		}
		if mode == replayTraced {
			runtime.ReadMemStats(&ms1)
			st.mallocs += ms1.Mallocs - ms0.Mallocs
			st.allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		}
		for _, out := range outputs {
			if err := checkOutput(job.Protocol, g, spec.K, out); err != nil {
				return fmt.Errorf("%s on %s n=%d under %s (%s): %w", job.Protocol, job.Graph, job.N, job.Adversary, job.Model, err)
			}
		}
		if st != nil {
			st.trials++
			st.proto.activate.ns += ps.activate.ns
			st.proto.activate.calls += ps.activate.calls
			st.proto.compose.ns += ps.compose.ns
			st.proto.compose.calls += ps.compose.calls
			st.proto.output.ns += ps.output.ns
			st.proto.output.calls += ps.output.calls
			key := protoKey(job.Protocol)
			st.perProto[key] += ps.ns()
			st.protoTrials[key]++
			st.adv.ns += advStats.ns
			st.adv.calls += advStats.calls
		}
	}
	if mode == replayPlain {
		return nil
	}
	return compareTallies(spec, ref, tallies)
}

// compareTallies requires the replay's own aggregation to agree with the
// reference report cell by cell.
func compareTallies(spec campaign.Spec, ref *campaign.Report, tallies []cellTally) error {
	if len(ref.Cells) != len(tallies) {
		return fmt.Errorf("report has %d cells, replay %d", len(ref.Cells), len(tallies))
	}
	for i, t := range tallies {
		c := ref.Cells[i]
		got := []int{c.Runs, c.Success, c.Deadlock, c.Failed}
		want := []int{t.runs, t.success, t.deadlock, t.failed}
		if spec.Exhaustive() {
			e := c.Exhaustive
			if e == nil {
				return fmt.Errorf("cell %d has no exhaustive block", i)
			}
			got = append(got[:2], e.Schedules, e.Success, e.Deadlock, e.Failed, e.Steps, e.Classes, e.StepsSaved)
			want = append(want[:2], t.schedules, t.sSuccess, t.sDeadlock, t.sFailed, t.steps, t.classes, t.saved)
		} else {
			got = append(got, c.Rounds.Min, c.Rounds.Max, c.BoardBits.Min, c.BoardBits.Max, c.MaxMessageBits)
			want = append(want, t.roundsMin, t.roundsMax, t.bitsMin, t.bitsMax, t.maxMsg)
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("cell %d (%s/%s n=%d %s %s): report %v, replay %v",
				i, c.Protocol, c.Graph, c.N, c.Adversary, c.Model, got, want)
		}
	}
	return nil
}

// checkReport checks the properties every correct report has.
func checkReport(spec campaign.Spec, rep *campaign.Report) error {
	spec = spec.Normalize()
	if len(rep.Cells) != spec.NumCells() || rep.Jobs != spec.NumCells()*spec.Seeds {
		return fmt.Errorf("report has %d cells and %d jobs for a %d-cell spec", len(rep.Cells), rep.Jobs, spec.NumCells())
	}
	var tot campaign.Totals
	for i, c := range rep.Cells {
		tot.Runs += c.Runs
		tot.Success += c.Success
		tot.Deadlock += c.Deadlock
		tot.Failed += c.Failed
		where := fmt.Sprintf("cell %d (%s/%s n=%d %s %s)", i, c.Protocol, c.Graph, c.N, c.Adversary, c.Model)
		if c.Runs != spec.Seeds || c.Success+c.Deadlock+c.Failed != c.Runs {
			return fmt.Errorf("%s: runs %d, seeds %d, outcomes %d+%d+%d", where, c.Runs, spec.Seeds, c.Success, c.Deadlock, c.Failed)
		}
		proto, err := registry.NewProtocol(c.Protocol, registry.Params{N: c.N, K: spec.K})
		if err != nil {
			return err
		}
		model, err := registry.ParseModel(c.Model)
		if err != nil {
			return err
		}
		effective := proto.Model()
		if model != nil {
			effective = *model
		}
		// Lemma 4: a protocol runs correctly under any model at least as
		// strong as its own, under every adversary.
		if effective.AtLeast(proto.Model()) && c.Success != c.Runs {
			return fmt.Errorf("%s: %d of %d runs succeeded under %s (first error: %s)", where, c.Success, c.Runs, effective, c.FirstError)
		}
		if spec.Exhaustive() {
			e := c.Exhaustive
			if e == nil || e.BudgetExhausted {
				return fmt.Errorf("%s: missing exhaustive block or exhausted budget", where)
			}
			if e.Success != e.Schedules {
				return fmt.Errorf("%s: %d of %d schedules succeeded", where, e.Success, e.Schedules)
			}
			if effective.Simultaneous() && e.Schedules != c.Runs*factorial(c.N) {
				return fmt.Errorf("%s: %d schedules, want %d·%d!", where, e.Schedules, c.Runs, c.N)
			}
		}
	}
	if tot != rep.Totals {
		return fmt.Errorf("totals %+v, cells sum to %+v", rep.Totals, tot)
	}
	return nil
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}

// naiveLimit is the largest n whose exhaustive cells are re-walked with
// the naive schedule tree.
const naiveLimit = 6

// checkNaive re-walks every exhaustive cell with n ≤ naiveLimit through
// engine.RunAll and requires the memoized report's tallies to match.
func checkNaive(spec campaign.Spec, ref *campaign.Report) error {
	spec = spec.Normalize()
	if spec.Seeds != 1 {
		return fmt.Errorf("exhaustive specs run one trial per cell, got %d", spec.Seeds)
	}
	for _, job := range spec.Expand() {
		if job.N > naiveLimit {
			continue
		}
		params := registry.Params{N: job.N, K: spec.K, P: spec.P, Seed: job.Seed}
		g, err := registry.NewGraph(job.Graph, params, rand.New(rand.NewSource(job.Seed)))
		if err != nil {
			return err
		}
		params.N = g.N()
		params.Seed = subSeed(job.Seed, protocolSalt)
		proto, err := registry.NewProtocol(job.Protocol, params)
		if err != nil {
			return err
		}
		model, err := registry.ParseModel(job.Model)
		if err != nil {
			return err
		}
		var succ, dead, fail int
		stats, err := engine.RunAll(proto, g, engine.Options{Model: model, MaxRounds: spec.MaxRounds}, spec.MaxSteps,
			func(res *core.Result, _ []int) error {
				switch res.Status {
				case core.Success:
					succ++
				case core.Deadlock:
					dead++
				default:
					fail++
				}
				return nil
			})
		if err != nil {
			return fmt.Errorf("naive walk of %s on %s n=%d: %w", job.Protocol, job.Graph, job.N, err)
		}
		e := ref.Cells[job.Cell].Exhaustive
		got := []int{e.Schedules, e.Success, e.Deadlock, e.Failed, e.Steps + e.StepsSaved}
		want := []int{stats.Schedules, succ, dead, fail, stats.Steps}
		if !slices.Equal(got, want) {
			return fmt.Errorf("%s on %s n=%d: memoized tallies %v, naive walk %v", job.Protocol, job.Graph, job.N, got, want)
		}
	}
	return nil
}

// reference is one distinct round spec's in-process report and the
// hashes of its JSON and CSV renderings.
type reference struct {
	rep       *campaign.Report
	json, csv [32]byte
}

func newReference(spec campaign.Spec) (*reference, error) {
	rep, err := campaign.Run(spec, campaign.Options{Workers: nproc})
	if err != nil {
		return nil, err
	}
	var j, c bytes.Buffer
	if err := rep.WriteJSON(&j); err != nil {
		return nil, err
	}
	if err := rep.WriteCSV(&c); err != nil {
		return nil, err
	}
	return &reference{rep: rep, json: sha256.Sum256(j.Bytes()), csv: sha256.Sum256(c.Bytes())}, nil
}
