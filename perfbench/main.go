// Command perfbench is the repository's benchmark: it runs one named
// workload against the program in-process, measures a timed phase of
// closed-loop submissions and reads, verifies every output, and prints one
// JSON line of metrics. See README.md for the workloads and metrics.
//
// Usage (from the repository root, through run.sh which builds it):
//
//	bash perfbench/run.sh --workload sampled-sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
)

// setupRepeats is how many times a run builds its environment; setup_s is
// the median, so one slow set-up does not move it.
const setupRepeats = 7

// workDir holds every file a run writes, relative to the checkout root.
const workDir = ".bench_build/perfbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: sampled-sweep, served-jobs or fleet-cells")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	if res == nil {
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload process: set-up, timed phase, verification
// and, when traced, the instrumented replay.
func run(name string, seed int64, seconds time.Duration, traced bool) (*result, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(workDir, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	b := &bench{name: name, seed: seed, round: workloads[name].round(seed), ctx: context.Background()}

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		e, err := b.setup(runDir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		b.env = e
		if err := b.warmup(); err != nil {
			e.close()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRepeats-1 {
			if err := e.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(e.dir)
		}
	}
	defer b.env.close()

	if traced {
		b.tr = newTracer()
	}
	ph, err := b.measure(b.rounds(seconds))
	if err != nil {
		return nil, err
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, r := range ph.subs {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	if res.Failed > 0 {
		// Every operation of every workload is expected to succeed; a
		// failed one is an error or a failed check (a wrong status, a
		// non-empty diff, an empty filtered list), already logged above.
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d of %d operations failed\n", name, seed, res.Failed, res.Attempted)
	}
	var lm map[string]metric
	if err := b.verify(ph.subs); err != nil {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: check failed: %v\n", name, seed, err)
	} else if traced {
		if lm, err = b.layerMetrics(ph); err != nil {
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: traced replay: %v\n", name, seed, err)
		}
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := b.tr.write(path); err != nil {
			return nil, err
		}
	}
	if traced {
		res.Metrics = lm
	} else {
		res.Metrics = ph.endToEnd(median(setups))
	}
	return res, nil
}

// phase is what the timed phase measured.
type phase struct {
	subs   []subResult
	rounds []roundStat
	wall   time.Duration // summed over rounds
	trials int
	sse    [2]int64 // served-jobs: events published, events dropped
	fabric [2]int64 // fleet-cells: resubmissions, cells deduped
}

// minSubmissions keeps ten turnaround samples beyond the 90th percentile
// even in a short run.
const minSubmissions = 100

// roundStat is one round's share of the rate metrics. The host this runs
// on is noisy in bursts; medians over rounds keep a slow burst from
// moving a whole run's figure.
type roundStat struct {
	wall, cpu time.Duration
	alloc     uint64
	rssPeak   int64 // largest resident size seen at a submission's end, bytes
	trials    int
}

// rounds is the fixed number of rounds a run of the given length makes:
// as many as fill it on the reference host, and at least enough for
// minSubmissions. The work of a run is a function of the workload, the
// seed and the length alone, never of how fast the host runs it.
func (b *bench) rounds(seconds time.Duration) int {
	n := int(math.Round(seconds.Seconds() / workloads[b.name].roundSeconds))
	return max(n, (minSubmissions+len(b.round)-1)/len(b.round))
}

// measure runs the timed phase: the given number of whole rounds, with
// the store trimmed back between them outside the timed rounds.
func (b *bench) measure(rounds int) (*phase, error) {
	sseBefore, fabBefore := b.counters()
	ph := &phase{}
	var ms runtime.MemStats
	for i := 0; i < rounds; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		alloc, cpu := ms.TotalAlloc, cpuTime()
		start := time.Now()
		subs := b.runRound()
		rs := roundStat{wall: time.Since(start)}
		runtime.ReadMemStats(&ms)
		rs.cpu, rs.alloc = cpuTime()-cpu, ms.TotalAlloc-alloc
		for _, r := range subs {
			if r.failed == 0 {
				rs.trials += r.trials
			}
			rs.rssPeak = max(rs.rssPeak, r.rss)
		}
		ph.rounds = append(ph.rounds, rs)
		ph.subs = append(ph.subs, subs...)
		ph.wall += rs.wall
		ph.trials += rs.trials
		if err := b.trim(subs); err != nil {
			return nil, fmt.Errorf("trimming the store: %w", err)
		}
	}
	sseAfter, fabAfter := b.counters()
	for i := range ph.sse {
		ph.sse[i] = sseAfter[i] - sseBefore[i]
		ph.fabric[i] = fabAfter[i] - fabBefore[i]
	}
	return ph, nil
}

// residentBytes reads the resident set size from /proc/self/statm.
func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// counters reads the program's own SSE and fabric counters.
func (b *bench) counters() (sse, fab [2]int64) {
	if b.name == "served-jobs" {
		_, events, dropped, _ := b.env.servers[0].tel.SSE.Counts()
		sse = [2]int64{events, dropped}
	}
	if b.name == "fleet-cells" {
		fab = [2]int64{b.env.fleetTel.Fabric.Resubmissions(), counter(b.env.fleetTel, "wb_fabric_cells_deduped_total")}
	}
	return sse, fab
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endToEnd computes the ten end-to-end metrics: latencies as quantiles
// over every sample of the run, rates and per-trial costs as medians over
// rounds.
func (ph *phase) endToEnd(setup float64) map[string]metric {
	var turn, first, reads []time.Duration
	for _, r := range ph.subs {
		if r.failed > 0 {
			continue
		}
		turn = append(turn, r.turnaround)
		first = append(first, r.firstCell)
		reads = append(reads, r.reads...)
	}
	perRound := func(f func(rs roundStat, trials float64) float64) float64 {
		var v []float64
		for _, rs := range ph.rounds {
			v = append(v, f(rs, float64(max(rs.trials, 1))))
		}
		return median(v)
	}
	return map[string]metric{
		"setup_s":            {setup, "s"},
		"trials_per_s":       {perRound(func(rs roundStat, t float64) float64 { return t / rs.wall.Seconds() }), "1/s"},
		"turnaround_p50_ms":  {ms(quantile(turn, 0.5)), "ms"},
		"turnaround_p90_ms":  {ms(quantile(turn, 0.9)), "ms"},
		"first_cell_p50_ms":  {ms(quantile(first, 0.5)), "ms"},
		"read_p50_ms":        {ms(quantile(reads, 0.5)), "ms"},
		"read_p90_ms":        {ms(quantile(reads, 0.9)), "ms"},
		"cpu_ms_per_trial":   {perRound(func(rs roundStat, t float64) float64 { return ms(rs.cpu) / t }), "ms"},
		"alloc_kb_per_trial": {perRound(func(rs roundStat, t float64) float64 { return float64(rs.alloc) / 1024 / t }), "KB"},
		"peak_rss_mb":        {perRound(func(rs roundStat, _ float64) float64 { return float64(rs.rssPeak) / (1 << 20) }), "MB"},
	}
}

// quantile is the nearest-rank q-quantile.
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// verify checks the round's reference reports, replays their jobs with
// output checks, and requires every byte a submission read back to match
// the reference rendering of its spec — also for a submission whose other
// reads failed.
func (b *bench) verify(subs []subResult) error {
	b.refs = make([]*reference, len(b.round))
	mode := replayCheck
	if b.tr != nil {
		mode = replayTraced
		b.stats = newReplayStats()
	}
	for i, spec := range b.round {
		ref, err := newReference(spec)
		if err != nil {
			return fmt.Errorf("reference run of %s: %w", spec.Name, err)
		}
		b.refs[i] = ref
		if err := checkReport(spec, ref.rep); err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		if spec.Mode == campaign.ModeExhaustive {
			if err := checkNaive(spec, ref.rep); err != nil {
				return fmt.Errorf("%s: %w", spec.Name, err)
			}
		}
		if err := b.replay(spec, ref.rep, mode, b.stats); err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
	}
	var none [32]byte
	for _, r := range subs {
		ref := b.refs[r.spec]
		if (r.jsonHash != none && r.jsonHash != ref.json) || (r.csvHash != none && r.csvHash != ref.csv) {
			return fmt.Errorf("%s: a report read back differs from the in-process run of the same spec", b.round[r.spec].Name)
		}
	}
	return nil
}
