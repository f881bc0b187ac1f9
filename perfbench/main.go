// Command perfbench is the repository benchmark: one command that runs a
// named workload of the optimizer, checks every output, and prints the
// workload's end-to-end metrics (or, with --trace 1, its per-layer
// metrics) as the last line of standard output.
//
//	bash perfbench/run.sh --workload suite-warm --seed 1 --seconds 15 --trace 0
//
// It is run from the repository root and writes only below .bench_build.
// See README.md in this directory for the workloads and the metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"mighash/internal/obs"
)

// outDir holds everything the benchmark writes: the learned 5-input
// store, suite-cold's reference digests and the traced runs' span files.
const outDir = ".bench_build"

// setupReps is how often an untraced run sets its workload up; setup_s
// is the median.
const setupReps = 3

// roundResult is what one round of a workload's fixed work measured.
type roundResult struct {
	wall      time.Duration
	latencies []time.Duration // one per completed operation
	attempted int
	failed    int // job errors, non-2xx, transport errors, check errors other than budget expiry
	decided   int // operations that reached a result (a verdict, on verify)
	gates     int
	depth     int
}

// mode selects how a round runs.
type mode int

const (
	// plain is the end-to-end measurement.
	plain mode = iota
	// probed installs the probes the per-layer metrics need that cost
	// memory or time outside the spans (the PassCheck capture), without
	// a tracer; it is the reference the traced round is compared with.
	probed
	// traced is probed plus tracing: ctx carries the tracer, the server
	// writes per-request trace files, and the verify rungs run apart.
	traced
)

// runner is one set-up workload.
type runner interface {
	// round runs the workload's fixed work once and keeps its outputs
	// for check until the next round.
	round(ctx context.Context, m mode) (roundResult, error)
	// check verifies the outputs of the last round.
	check() error
	// layers derives the per-layer metrics of the last round, which ran
	// traced, from the spans the tracer collected.
	layers(spans []*obs.Span) map[string]float64
	close()
}

// workload names a workload and how to set it up from a seed.
type workload struct {
	name  string
	setup func(ctx context.Context, seed uint64) (runner, error)
}

var workloads = []workload{
	{"suite-warm", func(ctx context.Context, seed uint64) (runner, error) { return setupSuite(ctx, seed, false) }},
	{"suite-cold", func(ctx context.Context, seed uint64) (runner, error) { return setupSuite(ctx, seed, true) }},
	{"serve", setupServe},
	{"verify", setupVerify},
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: suite-warm, suite-cold, serve or verify")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	secs := flag.Int("seconds", 15, "length of the timed phase: rounds repeat until they have run this long")
	trace := flag.Int("trace", 0, "1 runs the traced measurement and prints per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *secs, *trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var (
		res *result
		err error
	)
	if *trace == 1 {
		res, err = measureTraced(w, *seed)
	} else {
		res, err = measure(w, *seed, time.Duration(*secs)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runRound runs one round outside any other work: the heap is collected
// and returned to the operating system first, so garbage an earlier round
// left is not collected on this round's clock and the round's peak
// resident memory is its own, and the outputs are checked after the clock
// stops. It returns the round, the peak RSS in MB during it, the round's
// error and the check's verdict.
func runRound(ctx context.Context, r runner, m mode) (roundResult, float64, error, error) {
	debug.FreeOSMemory()
	rss := startRSS()
	rr, err := r.round(ctx, m)
	peak := rss.stop()
	if err != nil {
		return rr, peak, err, nil
	}
	return rr, peak, nil, r.check()
}

// measure is the untraced run: setupReps set-ups, then rounds until they
// have run for d in total. Each round's outputs are checked after it; a
// failed check ends the run.
func measure(w *workload, seed uint64, d time.Duration) (*result, error) {
	ctx := context.Background()
	var (
		r      runner
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if r, err = w.setup(ctx, seed); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer r.close()

	var (
		rounds   []roundResult
		peak     float64
		total    time.Duration
		checkErr error
	)
	for checkErr == nil && (len(rounds) == 0 || total < d) {
		var (
			rr  roundResult
			mb  float64
			err error
		)
		rr, mb, err, checkErr = runRound(ctx, r, plain)
		if err != nil {
			return nil, fmt.Errorf("%s round %d: %w", w.name, len(rounds)+1, err)
		}
		rounds = append(rounds, rr)
		peak = max(peak, mb)
		total += rr.wall
	}
	if checkErr == nil {
		checkErr = sameQoR(rounds)
	}
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness check failed: %v\n", w.name, checkErr)
	}

	var walls, lats []float64
	res := &result{Correct: checkErr == nil}
	decided := 0
	for _, rr := range rounds {
		walls = append(walls, rr.wall.Seconds())
		for _, l := range rr.latencies {
			lats = append(lats, millis(l))
		}
		res.Attempted += rr.attempted
		res.Failed += rr.failed
		decided += rr.decided
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d rounds %v s, %d operations (%d failed), %d latency samples, set-ups %v s\n",
		w.name, seed, len(rounds), walls, res.Attempted, res.Failed, len(lats), setups)
	m, err := named(endToEnd, map[string]float64{
		"setup_s":       quantile(setups, 0.5),
		"wall_s":        quantile(walls, 0.5),
		"gates":         float64(rounds[0].gates),
		"depth":         float64(rounds[0].depth),
		"p50_ms":        quantile(lats, 0.5),
		"p90_ms":        quantile(lats, 0.9),
		"req_per_s":     float64(res.Attempted-res.Failed) / total.Seconds(),
		"decided_share": float64(decided) / float64(res.Attempted),
		"peak_rss_mb":   peak,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Metrics = m
	return res, nil
}

// named attaches units to values by the metric list; every value must
// be a listed metric, and a listed metric without a value reads 0.
func named(list []struct{ name, unit string }, vals map[string]float64) (map[string]metric, error) {
	m := make(map[string]metric, len(list))
	for _, l := range list {
		m[l.name] = metric{vals[l.name], l.unit}
	}
	for k := range vals {
		if _, ok := m[k]; !ok {
			return nil, fmt.Errorf("metric %q is not listed", k)
		}
	}
	return m, nil
}

// sameQoR checks that every round produced the same gates and depth:
// the optimizer is deterministic, so any difference is a defect.
func sameQoR(rounds []roundResult) error {
	for i, rr := range rounds[1:] {
		if rr.gates != rounds[0].gates || rr.depth != rounds[0].depth {
			return fmt.Errorf("round %d gave %d gates depth %d, round 1 gave %d gates depth %d",
				i+2, rr.gates, rr.depth, rounds[0].gates, rounds[0].depth)
		}
	}
	return nil
}

// measureTraced is the traced run: one set-up, a probed round, then the
// same round with tracing on, and the per-layer metrics derived from the
// collected spans. trace.overhead_s is the traced round's wall time minus
// the probed one's. The spans are kept in memory and written to outDir
// at the end.
func measureTraced(w *workload, seed uint64) (*result, error) {
	tracer := obs.New(obs.Options{Retain: true})
	tctx := obs.ContextWithTracer(context.Background(), tracer)

	sctx, span := obs.Start(tctx, "bench.setup")
	r, err := w.setup(sctx, seed)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer r.close()

	var (
		rounds   []roundResult
		checkErr error
	)
	for _, m := range []mode{probed, traced} {
		ctx := context.Background()
		var span *obs.Span
		if m == traced {
			ctx, span = obs.Start(tctx, "bench.round")
		}
		rr, _, err, cerr := runRound(ctx, r, m)
		span.End()
		if err != nil {
			return nil, fmt.Errorf("%s round: %w", w.name, err)
		}
		rounds = append(rounds, rr)
		if checkErr == nil {
			checkErr = cerr
		}
	}
	if checkErr == nil {
		checkErr = sameQoR(rounds)
	}
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness check failed: %v\n", w.name, checkErr)
	}

	probe, trace := rounds[0], rounds[1]
	layers := r.layers(tracer.Spans())
	layers["trace.wall_s"] = trace.wall.Seconds()
	layers["trace.overhead_s"] = (trace.wall - probe.wall).Seconds()
	m, err := named(perLayer, layers)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	if err := tracer.SaveTrace(path); err != nil {
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: probed round %.3f s, traced round %.3f s, spans written to %s\n",
		w.name, seed, probe.wall.Seconds(), trace.wall.Seconds(), path)
	res := &result{Correct: checkErr == nil, Metrics: m}
	for _, rr := range rounds {
		res.Attempted += rr.attempted
		res.Failed += rr.failed
	}
	return res, nil
}

// rssSampler tracks the peak resident set size of the process by
// sampling /proc/self/statm while it runs.
type rssSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak int64 // bytes; written by the sampling goroutine only until done
}

func startRSS() *rssSampler {
	s := &rssSampler{done: make(chan struct{})}
	s.sample()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.sample()
			case <-s.done:
				return
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	if rss := pages * int64(os.Getpagesize()); rss > s.peak {
		s.peak = rss
	}
}

// stop ends sampling and returns the peak in MB.
func (s *rssSampler) stop() float64 {
	close(s.done)
	s.wg.Wait()
	s.sample()
	return float64(s.peak) / (1 << 20)
}
