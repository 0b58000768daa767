package main

// The workload environment: the local result store, the in-process
// wbserve servers on loopback, and the HTTP clients that talk to them.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/resultstore"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// httpServer is one server.Server listening on a loopback port.
type httpServer struct {
	srv  *server.Server
	tel  *telemetry.Set
	hs   *http.Server
	url  string
	done chan error
}

// startServer serves store over loopback with jobWorkers campaign workers
// per submitted job, and returns once /healthz answers.
func startServer(store *resultstore.Store, jobWorkers int) (*httpServer, error) {
	tel := telemetry.NewSet()
	srv, err := server.New(server.Options{Stores: []*resultstore.Store{store}, JobWorkers: jobWorkers, Telemetry: tel})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &httpServer{srv: srv, tel: tel, hs: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { h.done <- h.hs.Serve(ln) }()
	if err := waitHealthy(h.url); err != nil {
		h.stop()
		return nil, err
	}
	return h, nil
}

// waitHealthy polls /healthz until it answers 200, for at most 10 s.
func waitHealthy(url string) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := hc.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				hc.CloseIdleConnections()
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server %s not healthy: %v", url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the campaign jobs and the HTTP server and waits for Serve
// to return.
func (h *httpServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.hs.Shutdown(ctx)
	if jerr := h.srv.Shutdown(ctx); err == nil {
		err = jerr
	}
	if serr := <-h.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// counter reads one unlabeled series from a telemetry registry's text
// exposition; the fabric's dedup counter has no accessor of its own.
func counter(tel *telemetry.Set, name string) int64 {
	var buf bytes.Buffer
	if err := tel.Registry.WriteText(&buf); err != nil {
		return 0
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// fleetTransport counts the coordinator's calls to its workers by route
// and timestamps the first shard submission of each fleet run.
type fleetTransport struct {
	base http.RoundTripper

	mu        sync.Mutex
	firstPost time.Time
	healthz   int
	polls     int
	cancels   int
}

func (t *fleetTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	now := time.Now()
	p := req.URL.Path
	t.mu.Lock()
	switch {
	case req.Method == http.MethodGet && p == "/healthz":
		t.healthz++
	case req.Method == http.MethodPost && p == "/api/v1/campaigns":
		if t.firstPost.IsZero() {
			t.firstPost = now
		}
	case req.Method == http.MethodPost && strings.HasSuffix(p, "/cancel"):
		t.cancels++
	case req.Method == http.MethodGet && strings.HasPrefix(p, "/api/v1/campaigns/") && !strings.HasSuffix(p, "/events"):
		t.polls++
	}
	t.mu.Unlock()
	return t.base.RoundTrip(req)
}

// reset starts a new fleet run's tallies and returns the previous ones.
func (t *fleetTransport) reset() (firstPost time.Time, healthz, polls, cancels int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	firstPost, healthz, polls, cancels = t.firstPost, t.healthz, t.polls, t.cancels
	t.firstPost, t.healthz, t.polls, t.cancels = time.Time{}, 0, 0, 0
	return
}

// env is one set-up of a workload: everything the timed phase needs.
type env struct {
	dir     string
	store   *resultstore.Store // where submissions end up: local, or the served server's
	servers []*httpServer

	// served-jobs
	clients []*servedClient
	prev    map[string]string // spec hash → ref of the run the next diff compares against

	// fleet-cells
	fleetHTTP *http.Client
	fleetTr   *fleetTransport
	fleetTel  *telemetry.Set
}

func (e *env) close() error {
	var err error
	for _, c := range e.clients {
		c.hc.CloseIdleConnections()
	}
	if e.fleetHTTP != nil {
		e.fleetHTTP.CloseIdleConnections()
	}
	for _, s := range e.servers {
		if serr := s.stop(); err == nil {
			err = serr
		}
	}
	return err
}

// populate saves one report of every spec into store under label ("" for
// an auto-assigned label) and returns the entries by spec hash.
func populate(store *resultstore.Store, specs []campaign.Spec, label string) (map[string]resultstore.Entry, error) {
	out := map[string]resultstore.Entry{}
	for _, spec := range specs {
		rep, err := campaign.Run(spec, campaign.Options{Workers: 1})
		if err != nil {
			return nil, fmt.Errorf("pre-populating %s: %w", spec.Name, err)
		}
		e, err := store.Save(rep, label)
		if err != nil {
			return nil, fmt.Errorf("pre-populating %s: %w", spec.Name, err)
		}
		out[e.SpecHash] = e
	}
	return out, nil
}
