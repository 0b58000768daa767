package main

// Per-layer metrics of the traced run.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
)

// protocolNames are the protocols with a per-protocol metric; "gate" is
// the gate: wrapper around mis.
var protocolNames = []string{"bfs", "bfs-cached", "mis", "connectivity", "build-forest", "build-kdeg", "gate"}

// layerMetrics turns the traced timed phase and the instrumented replay of
// the round into per-layer metrics. Layers a workload does not reach read
// zero.
func (b *bench) layerMetrics(ph *phase) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	div := func(a, c float64) float64 {
		if c == 0 {
			return 0
		}
		return a / c
	}
	st := b.stats
	trials := float64(st.trials)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	lt := b.tr.layerTimes()
	spanNS := func(name string, self bool) int64 {
		t := lt[name]
		switch {
		case t == nil:
			return 0
		case self:
			return t.self.Nanoseconds()
		}
		return t.total.Nanoseconds()
	}
	graphNS := spanNS("registry.NewGraph", false)
	// The engine spans' self time excludes the protocol and adversary calls
	// made inside them.
	engineSelfNS := spanNS("engine.Runner.Run", true) + spanNS("engine.RunAllMemo", true)

	put("trace.trials_per_s", float64(ph.trials)/ph.wall.Seconds(), "1/s")
	put("graph.build_us_per_trial", div(us(graphNS), trials), "us")
	put("protocol.activate_us_per_trial", div(us(st.proto.activate.ns), trials), "us")
	put("protocol.compose_us_per_trial", div(us(st.proto.compose.ns), trials), "us")
	put("protocol.output_us_per_trial", div(us(st.proto.output.ns), trials), "us")
	put("protocol.activate_calls_per_trial", div(float64(st.proto.activate.calls), trials), "count")
	put("protocol.compose_calls_per_trial", div(float64(st.proto.compose.calls), trials), "count")
	for _, name := range protocolNames {
		put("protocol."+name+".us_per_trial", div(us(st.perProto[name]), float64(st.protoTrials[name])), "us")
	}
	replayNS := graphNS + st.proto.ns() + st.adv.ns + engineSelfNS
	put("protocol.share_of_replay", div(float64(st.proto.ns()), float64(replayNS)), "ratio")
	put("adversary.choose_us_per_trial", div(us(st.adv.ns), trials), "us")
	put("adversary.choose_calls_per_trial", div(float64(st.adv.calls), trials), "count")
	steps := float64(st.engine.Steps())
	put("engine.self_us_per_trial", div(us(engineSelfNS), trials), "us")
	put("engine.ns_per_step", div(float64(engineSelfNS), steps), "ns")
	put("engine.steps_per_trial", div(steps, trials), "count")
	put("engine.allocs_per_step", div(float64(st.mallocs), steps), "count")
	put("engine.alloc_bytes_per_step", div(float64(st.allocBytes), steps), "B")
	put("engine.memo_classes_per_trial", div(float64(st.classes), float64(st.memoTrials)), "count")
	put("engine.memo_hit_ratio", div(st.savedSteps, st.naiveSteps), "ratio")

	// Campaign self time, report rendering and the store, per round spec.
	var selfNS, renderNS, saveNS, loadNS, listNS, bytesTotal, cells int64
	for i, spec := range b.round {
		// The difference of two walls is small next to either, so each is
		// the faster of two alternating measurements.
		var streamNS, replayNS int64
		for rep := 0; rep < 2; rep++ {
			start := time.Now()
			for _, err := range campaign.NewRunner(campaign.Options{Workers: 1}).Stream(b.ctx, spec) {
				if err != nil {
					return nil, err
				}
			}
			streamNS = minPositive(streamNS, time.Since(start).Nanoseconds())
			start = time.Now()
			if err := b.replay(spec, nil, replayPlain, nil); err != nil {
				return nil, err
			}
			replayNS = minPositive(replayNS, time.Since(start).Nanoseconds())
		}
		selfNS += streamNS - replayNS

		rep := b.refs[i].rep
		var buf bytes.Buffer
		start := time.Now()
		if err := rep.WriteJSON(&buf); err != nil {
			return nil, err
		}
		if err := rep.WriteCSV(&buf); err != nil {
			return nil, err
		}
		renderNS += time.Since(start).Nanoseconds()

		start = time.Now()
		e, err := b.env.store.Save(rep, fmt.Sprintf("trace-%d", i))
		if err != nil {
			return nil, err
		}
		saveNS += time.Since(start).Nanoseconds()
		start = time.Now()
		if _, _, err := b.env.store.Load(e.Ref()); err != nil {
			return nil, err
		}
		loadNS += time.Since(start).Nanoseconds()
		start = time.Now()
		if _, err := b.env.store.List(); err != nil {
			return nil, err
		}
		listNS += time.Since(start).Nanoseconds()
		fi, err := os.Stat(filepath.Join(b.env.store.Dir(), e.SpecHash, e.Label+".json"))
		if err != nil {
			return nil, err
		}
		bytesTotal += fi.Size()
		cells += int64(len(rep.Cells))
	}
	specs := float64(len(b.round))
	put("campaign.self_ms_per_submission", float64(selfNS)/1e6/specs, "ms")
	put("campaign.render_us_per_report", us(renderNS)/specs, "us")
	put("store.save_ms", float64(saveNS)/1e6/specs, "ms")
	put("store.load_ms", float64(loadNS)/1e6/specs, "ms")
	put("store.list_ms", float64(listNS)/1e6/specs, "ms")
	put("store.bytes_per_cell", float64(bytesTotal)/float64(cells), "B")

	// The served and fleet layers, from the timed phase's spans and the
	// program's own counters.
	meanMS := func(name string) float64 {
		if t := lt[name]; t != nil {
			return ms(t.total) / float64(t.count)
		}
		return 0
	}
	put("server.submit_ms", meanMS("client.Submit"), "ms")
	for _, name := range []string{"first_event", "report_json", "report_csv", "not_modified", "list", "diff"} {
		put("server."+name+"_ms", meanMS("server."+name), "ms")
	}
	var ok, fleetRuns float64
	var delay, tail time.Duration
	var healthz, polls, cancels int
	for _, r := range ph.subs {
		if r.failed > 0 {
			continue
		}
		ok++
		if b.name == "fleet-cells" {
			fleetRuns++
			delay += r.submitDelay
			tail += r.mergeTail
			healthz += r.healthz
			polls += r.polls
			cancels += r.cancels
		}
	}
	put("server.sse_events_per_submission", div(float64(ph.sse[0]), ok), "count")
	put("server.sse_dropped_events", float64(ph.sse[1]), "count")
	put("fabric.submit_delay_ms", div(ms(delay), fleetRuns), "ms")
	put("fabric.merge_tail_ms", div(ms(tail), fleetRuns), "ms")
	put("fabric.healthz_per_run", div(float64(healthz), fleetRuns), "count")
	put("fabric.status_polls_per_run", div(float64(polls), fleetRuns), "count")
	put("fabric.cancels_per_run", div(float64(cancels), fleetRuns), "count")
	put("fabric.resubmissions_per_run", div(float64(ph.fabric[0]), fleetRuns), "count")
	put("fabric.cells_deduped_per_run", div(float64(ph.fabric[1]), fleetRuns), "count")
	return m, nil
}

// minPositive is the smaller of a and b, treating a zero a as unset.
func minPositive(a, b int64) int64 {
	if a == 0 {
		return b
	}
	return min(a, b)
}
