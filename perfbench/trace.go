package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
)

// span is one timed call from the benchmark into a layer's public function.
// Start and End are nanoseconds since the tracer started. ChildNS is time
// spent in per-call children that are aggregated rather than kept as spans
// (the protocol and adversary calls inside one engine run, which number in
// the thousands), so a span's self time is its duration minus its child
// spans minus ChildNS.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Sub     int    `json:"sub"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	ChildNS int64  `json:"child_ns,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent, sub int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Sub: sub, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id, adding childNS of aggregated per-call child time.
func (t *tracer) end(id int, childNS int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].ChildNS = childNS
}

// record adds a span whose interval was measured elsewhere.
func (t *tracer) record(name string, parent, sub int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Sub: sub, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// layerTimes sums, per span name, the total duration, the self time and
// the number of spans.
type layerTime struct {
	total, self time.Duration
	count       int
}

func (t *tracer) layerTimes() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	childSum := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerTime{}
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.total += s.dur()
		lt.self += time.Duration(s.End - s.Start - childSum[s.ID] - s.ChildNS)
		lt.count++
	}
	return out
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// callStats accumulates the time and count of one kind of per-call work.
type callStats struct {
	ns    int64
	calls int64
}

func (c *callStats) add(start time.Time) {
	c.ns += time.Since(start).Nanoseconds()
	c.calls++
}

// protoStats is the per-protocol tally of the timing decorator.
type protoStats struct {
	activate, compose, output callStats
}

func (p *protoStats) ns() int64 { return p.activate.ns + p.compose.ns + p.output.ns }

// timedProtocol times every Activate, Compose and Output call of the
// protocol it wraps. The replay is single-threaded, so the tallies are
// plain fields.
type timedProtocol struct {
	inner core.Protocol
	st    *protoStats
}

func (p timedProtocol) Name() string             { return p.inner.Name() }
func (p timedProtocol) Model() core.Model        { return p.inner.Model() }
func (p timedProtocol) MaxMessageBits(n int) int { return p.inner.MaxMessageBits(n) }
func (p timedProtocol) Activate(v core.NodeView, b *core.Board) bool {
	start := time.Now()
	ok := p.inner.Activate(v, b)
	p.st.activate.add(start)
	return ok
}

func (p timedProtocol) Compose(v core.NodeView, b *core.Board) core.Message {
	start := time.Now()
	m := p.inner.Compose(v, b)
	p.st.compose.add(start)
	return m
}

func (p timedProtocol) Output(n int, b *core.Board) (any, error) {
	start := time.Now()
	out, err := p.inner.Output(n, b)
	p.st.output.add(start)
	return out, err
}

// timedAdversary times every Choose call. It forwards adversary.Faulter,
// so a scripted adversary that exhausts its budget still fails its run
// with the script's fault instead of a generic bad-choice error.
type timedAdversary struct {
	inner adversary.Adversary
	st    *callStats
}

func (a timedAdversary) Name() string { return a.inner.Name() }

func (a timedAdversary) Choose(round int, candidates []int, b *core.Board) int {
	start := time.Now()
	c := a.inner.Choose(round, candidates, b)
	a.st.add(start)
	return c
}

// Fault implements adversary.Faulter by asking the wrapped adversary.
func (a timedAdversary) Fault() error {
	if f, ok := a.inner.(adversary.Faulter); ok {
		return f.Fault()
	}
	return nil
}
