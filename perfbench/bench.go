package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/client"
	"repro/internal/fabric"
	"repro/internal/resultstore"
	"repro/internal/telemetry"
)

// nproc bounds the benchmark's concurrency: submitters, campaign workers
// and client connections.
const nproc = 2

// Pre-population sizes: the local store of every workload holds
// localFillers runs before the first submission, the served store
// servedFillers plus one run of every round spec.
const (
	localFillers  = 100
	servedFillers = 120
)

// workloads maps each name to its round generator, its submitter count,
// how many round specs its warm-up submits, and the wall time of one
// round on the reference host (README), from which a run's fixed number
// of rounds is set. The sampled-sweep warm-up covers the round's light
// level, its exhaustive specs included.
var workloads = map[string]struct {
	round        func(seed int64) []campaign.Spec
	submitters   int
	warmup       int
	roundSeconds float64
}{
	"sampled-sweep": {sampledRound, 1, 16, 3.3},
	"served-jobs":   {servedRound, nproc, 4, 0.6},
	"fleet-cells":   {fleetRound, 1, 3, 1.4},
}

// subResult is what one submission measured. Reads are the timed reads of
// the stored report that follow it; the hashes let the verification phase
// compare every byte read back with an in-process run of the same spec.
type subResult struct {
	spec       int // index into the round
	trials     int
	turnaround time.Duration
	firstCell  time.Duration
	reads      []time.Duration
	jsonHash   [32]byte
	csvHash    [32]byte
	failed     int // operations that returned an error
	attempted  int
	rss        int64  // resident set size when the submission's reads ended
	ref        string // served-jobs: the stored run's hash/label

	// fleet-cells only
	submitDelay, mergeTail  time.Duration
	healthz, polls, cancels int
}

// bench is one workload process.
type bench struct {
	name  string
	seed  int64
	round []campaign.Spec
	tr    *tracer
	env   *env

	// Filled by the verification phase: the reference report of every
	// round spec, and the traced replay's tallies.
	refs  []*reference
	stats *replayStats

	ctx context.Context
	mu  sync.Mutex
	sub int // submission counter (span ids)
}

func (b *bench) nextSub() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sub++
	return b.sub
}

// setup builds a fresh environment in its own directory under root:
// pre-populated stores, healthy servers, connected clients. On failure it
// stops whatever it had started.
func (b *bench) setup(root string) (_ *env, err error) {
	dir, err := os.MkdirTemp(root, "env-")
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	if b.name == "served-jobs" {
		if e.store, err = resultstore.Open(filepath.Join(dir, "served")); err != nil {
			return nil, err
		}
		if _, err = populate(e.store, fillerSpecs(b.seed, servedFillers), ""); err != nil {
			return nil, err
		}
		base, err := populate(e.store, b.round, "base")
		if err != nil {
			return nil, err
		}
		e.prev = map[string]string{}
		for hash, entry := range base {
			e.prev[hash] = entry.Ref()
		}
		srv, err := startServer(e.store, 1)
		if err != nil {
			return nil, err
		}
		e.servers = append(e.servers, srv)
		for i := 0; i < nproc; i++ {
			// One connection per client: the SSE stream closes before the
			// reads start, so submission, stream and reads share it.
			hc := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
			e.clients = append(e.clients, &servedClient{c: client.New(srv.url, client.Options{HTTPClient: hc}), hc: hc, url: srv.url})
		}
		return e, nil
	}
	if e.store, err = resultstore.Open(filepath.Join(dir, "local")); err != nil {
		return nil, err
	}
	if _, err = populate(e.store, fillerSpecs(b.seed, localFillers), ""); err != nil {
		return nil, err
	}
	if b.name == "fleet-cells" {
		for i := 0; i < nproc; i++ {
			st, err := resultstore.Open(filepath.Join(dir, fmt.Sprintf("worker-%d", i)))
			if err != nil {
				return nil, err
			}
			srv, err := startServer(st, 1)
			if err != nil {
				return nil, err
			}
			e.servers = append(e.servers, srv)
		}
		e.fleetTr = &fleetTransport{base: &http.Transport{DisableCompression: true}}
		e.fleetHTTP = &http.Client{Timeout: 30 * time.Second, Transport: e.fleetTr}
		e.fleetTel = telemetry.NewSet()
	}
	return e, nil
}

// warmup submits the first few round specs through the workload's own
// path, untimed, so lazily built state and connections exist before the
// timed phase starts.
func (b *bench) warmup() error {
	for i := 0; i < min(workloads[b.name].warmup, len(b.round)); i++ {
		r := b.submit(i%b.submitters(), i)
		if r.failed > 0 {
			return fmt.Errorf("warm-up submission %d failed", i)
		}
	}
	return nil
}

func (b *bench) submitters() int { return workloads[b.name].submitters }

// runRound submits every round spec once, spreading them over the
// workload's submitters; each submitter runs a closed loop.
func (b *bench) runRound() []subResult {
	out := make([]subResult, len(b.round))
	var wg sync.WaitGroup
	for c := 0; c < b.submitters(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(b.round); i += b.submitters() {
				out[i] = b.submit(c, i)
			}
		}(c)
	}
	wg.Wait()
	return out
}

// trim prunes the workload's store back to one run of every spec, the
// newest, between rounds, so every round reads and writes a store of the
// same size whatever the run's length. On served-jobs the kept run of
// each round spec is the one the next round's diff compares against.
func (b *bench) trim(subs []subResult) error {
	if _, err := b.env.store.GC(1, true); err != nil {
		return err
	}
	for _, r := range subs {
		if r.ref != "" {
			hash, _, _ := strings.Cut(r.ref, "/")
			b.env.prev[hash] = r.ref
		}
	}
	return nil
}

// submit hands spec i to the program on submitter c and reads the stored
// report back.
func (b *bench) submit(c, i int) subResult {
	spec := b.round[i]
	norm := spec.Normalize()
	r := subResult{spec: i, trials: norm.NumCells() * norm.Seeds}
	var err error
	switch b.name {
	case "served-jobs":
		err = b.submitServed(b.env.clients[c], spec, &r)
	case "fleet-cells":
		err = b.submitFleet(spec, &r)
	default:
		err = b.submitLocal(spec, &r)
	}
	r.attempted++
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s submission %d: %v\n", b.name, i, err)
		r.failed++
	}
	r.rss = residentBytes()
	return r
}

// submitLocal streams the spec through an in-process campaign runner with
// nproc workers, saves the report and reads it back twice.
func (b *bench) submitLocal(spec campaign.Spec, r *subResult) error {
	sub := b.nextSub()
	start := time.Now()
	sp := b.tr.start("campaign.Runner.Stream", 0, sub)
	var cells []campaign.Cell
	for cr, err := range campaign.NewRunner(campaign.Options{Workers: nproc}).Stream(b.ctx, spec) {
		if err != nil {
			return err
		}
		if len(cells) == 0 {
			r.firstCell = time.Since(start)
		}
		cells = append(cells, cr.Cell)
	}
	b.tr.end(sp, 0)
	rep, err := campaign.AssembleReport(spec, cells)
	if err != nil {
		return err
	}
	entry, err := b.save(rep, sub)
	if err != nil {
		return err
	}
	r.turnaround = time.Since(start)
	b.readLocal(entry, sub, r)
	return nil
}

func (b *bench) save(rep *campaign.Report, sub int) (resultstore.Entry, error) {
	sp := b.tr.start("resultstore.Store.Save", 0, sub)
	defer b.tr.end(sp, 0)
	return b.env.store.Save(rep, "")
}

// readFailed books one failed read.
func (b *bench) readFailed(r *subResult, err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %s read of round spec %d: %v\n", b.name, r.spec, err)
	r.failed++
}

// readLocal loads the stored report four times, rendering it as JSON
// three times and as CSV once; each load plus render is one read. The two
// renders differ in cost, and with half of the reads of each kind the
// 50th percentile of read time would sit on the edge between the two,
// where it jumps with small shifts; at three to one both reported
// percentiles fall inside one kind.
func (b *bench) readLocal(entry resultstore.Entry, sub int, r *subResult) {
	for _, format := range []string{"json", "csv", "json", "json"} {
		r.attempted++
		start := time.Now()
		sp := b.tr.start("resultstore.Store.Load", 0, sub)
		rep, _, err := b.env.store.Load(entry.Ref())
		b.tr.end(sp, 0)
		if err != nil {
			b.readFailed(r, err)
			continue
		}
		var buf bytes.Buffer
		sp = b.tr.start("campaign.Report.Render", 0, sub)
		err = rep.Render(&buf, format)
		b.tr.end(sp, 0)
		if err != nil {
			b.readFailed(r, err)
			continue
		}
		r.reads = append(r.reads, time.Since(start))
		if format == "json" {
			r.jsonHash = sha256.Sum256(buf.Bytes())
		} else {
			r.csvHash = sha256.Sum256(buf.Bytes())
		}
	}
}

// servedClient is one of the served-jobs clients: the program's API
// client for submission and the event stream, and the same connection
// for the plain GETs of the read mix.
type servedClient struct {
	c   *client.Client
	hc  *http.Client
	url string
}

// submitServed submits over HTTP, follows the job's SSE stream to the
// terminal frame, then runs the read mix.
func (b *bench) submitServed(sc *servedClient, spec campaign.Spec, r *subResult) error {
	sub := b.nextSub()
	start := time.Now()
	sp := b.tr.start("client.Submit", 0, sub)
	job, err := sc.c.Submit(b.ctx, spec, "")
	b.tr.end(sp, 0)
	if err != nil {
		return err
	}
	evStart := time.Now()
	sp = b.tr.start("client.Events", 0, sub)
	gotEvent := false
	for ev, err := range sc.c.Events(b.ctx, job.ID, 0) {
		if err != nil {
			b.tr.end(sp, 0)
			return err
		}
		if !gotEvent {
			gotEvent = true
			b.tr.record("server.first_event", sp, sub, evStart, time.Now())
		}
		switch ev.Type {
		case "cell":
			if r.firstCell == 0 {
				r.firstCell = time.Since(start)
			}
		case "state":
			job = *ev.Job
		}
	}
	b.tr.end(sp, 0)
	if job.State != client.StateDone {
		return fmt.Errorf("job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	r.turnaround = time.Since(start)
	r.ref = job.Ref
	b.readServed(sc, spec, job, sub, r)
	return nil
}

// readServed is the served read mix: report JSON, report CSV, the JSON
// again conditional on its ETag (must answer 304), a filtered list page,
// and the diff of this run against the spec's previous stored run — the
// pre-populated one, or the last round's — which must be empty, since
// both ran the same spec.
func (b *bench) readServed(sc *servedClient, spec campaign.Spec, job client.Job, sub int, r *subResult) {
	reportURL := sc.url + "/api/v1/reports/" + job.Ref
	listURL := fmt.Sprintf("%s/api/v1/reports?protocol=%s&limit=20&offset=%d",
		sc.url, url.QueryEscape(spec.Protocols[0]), 20*(sub%5))
	diffURL := fmt.Sprintf("%s/api/v1/diff?format=json&old=%s&new=%s",
		sc.url, url.QueryEscape(b.env.prev[job.SpecHash]), url.QueryEscape(job.Ref))
	var etag string
	reads := []struct {
		name, url string
		want      int
		check     func(resp *http.Response, body []byte) error
	}{
		{"server.report_json", reportURL + "?format=json", http.StatusOK, func(resp *http.Response, body []byte) error {
			etag = resp.Header.Get("ETag")
			r.jsonHash = sha256.Sum256(body)
			return nil
		}},
		{"server.report_csv", reportURL + "?format=csv", http.StatusOK, func(_ *http.Response, body []byte) error {
			r.csvHash = sha256.Sum256(body)
			return nil
		}},
		{"server.not_modified", reportURL + "?format=json", http.StatusNotModified, nil},
		{"server.list", listURL, http.StatusOK, func(_ *http.Response, body []byte) error {
			var page struct {
				Total int `json:"total"`
			}
			if err := json.Unmarshal(body, &page); err != nil {
				return err
			}
			if page.Total < 1 {
				return fmt.Errorf("list filtered on %s found nothing", spec.Protocols[0])
			}
			return nil
		}},
		{"server.diff", diffURL, http.StatusOK, func(_ *http.Response, body []byte) error {
			var d resultstore.Diff
			if err := json.Unmarshal(body, &d); err != nil {
				return err
			}
			if !d.Empty() || d.CellsCompared != spec.Normalize().NumCells() {
				return fmt.Errorf("diff of two runs of one spec: %d deltas over %d cells", len(d.Deltas), d.CellsCompared)
			}
			return nil
		}},
	}
	for _, rd := range reads {
		r.attempted++
		req, err := http.NewRequestWithContext(b.ctx, http.MethodGet, rd.url, nil)
		if err != nil {
			b.readFailed(r, err)
			continue
		}
		if rd.want == http.StatusNotModified {
			req.Header.Set("If-None-Match", etag)
		}
		start := time.Now()
		sp := b.tr.start(rd.name, 0, sub)
		resp, err := sc.hc.Do(req)
		var body []byte
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		b.tr.end(sp, 0)
		d := time.Since(start)
		if err == nil && resp.StatusCode != rd.want {
			err = fmt.Errorf("GET %s answered %d, want %d", rd.url, resp.StatusCode, rd.want)
		}
		if err == nil && rd.check != nil {
			err = rd.check(resp, body)
		}
		if err != nil {
			b.readFailed(r, err)
			continue
		}
		r.reads = append(r.reads, d)
	}
}

// submitFleet runs the spec across the two in-process workers through the
// fabric coordinator, saves the merged report locally and reads it back.
func (b *bench) submitFleet(spec campaign.Spec, r *subResult) error {
	sub := b.nextSub()
	b.env.fleetTr.reset()
	var urls []string
	for _, s := range b.env.servers {
		urls = append(urls, s.url)
	}
	var lastCell time.Time
	start := time.Now()
	sp := b.tr.start("fabric.Run", 0, sub)
	rep, err := fabric.Run(b.ctx, spec, fabric.Options{
		Workers:    urls,
		HTTPClient: b.env.fleetHTTP,
		Metrics:    b.env.fleetTel.Fabric,
		OnCell: func(campaign.CellResult) {
			lastCell = time.Now()
			if r.firstCell == 0 {
				r.firstCell = lastCell.Sub(start)
			}
		},
	})
	b.tr.end(sp, 0)
	runEnd := time.Now()
	if err != nil {
		return err
	}
	firstPost, healthz, polls, cancels := b.env.fleetTr.reset()
	r.submitDelay, r.mergeTail = firstPost.Sub(start), runEnd.Sub(lastCell)
	r.healthz, r.polls, r.cancels = healthz, polls, cancels
	entry, err := b.save(rep, sub)
	if err != nil {
		return err
	}
	r.turnaround = time.Since(start)
	b.readLocal(entry, sub, r)
	return nil
}
