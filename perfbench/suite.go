package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"mighash/internal/circuits"
	"mighash/internal/cut"
	"mighash/internal/db"
	"mighash/internal/engine"
	"mighash/internal/exp"
	"mighash/internal/mig"
	"mighash/internal/npn"
	"mighash/internal/obs"
	"mighash/internal/tt"
)

// suiteGates is the QoR invariant: resyn-x over the whole prepared suite
// ends at exactly this many gates.
const suiteGates = 123316

// suiteScript is the preset both suite workloads run.
const suiteScript = "resyn-x"

// suiteWorkers is the batch pool size of the suite workloads.
const suiteWorkers = 2

// coldCircuits are the circuits suite-cold optimizes from an empty
// 5-input store. They meet 45 of the 96 classes the whole suite learns,
// so exact-synthesis ladders dominate the round.
var coldCircuits = []string{"Sine", "Log2"}

// prepared is one suite circuit after depth preparation.
type prepared struct {
	name string
	m    *mig.MIG
}

// prepareSuite builds and depth-prepares the named circuits (all eight
// when names is empty) in suite order, as migpipe does, each under a
// "setup.prepare" span.
func prepareSuite(ctx context.Context, names ...string) ([]prepared, error) {
	var out []prepared
	for _, spec := range circuits.All() {
		if len(names) > 0 && !slices.Contains(names, spec.Name) {
			continue
		}
		_, span := obs.Start(ctx, "setup.prepare")
		span.SetStr("circuit", spec.Name)
		out = append(out, prepared{spec.Name, exp.PrepareStart(spec)})
		span.End()
	}
	if len(names) > 0 && len(out) != len(names) {
		return nil, fmt.Errorf("unknown circuit among %v", names)
	}
	return out, nil
}

// loadDB loads the 4-input database under a "setup.db" span.
func loadDB(ctx context.Context) (*db.DB, error) {
	_, span := obs.Start(ctx, "setup.db")
	defer span.End()
	return db.Load()
}

// buildKey names the files the benchmark keeps per build: a store or a
// reference is only ever used by the program that produced it.
func buildKey() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// learnedStore returns the snapshot of the 5-input store that resyn-x
// learns cold over the whole suite. Learning takes about half a minute,
// so it is done once per benchmark binary and kept in outDir; later runs
// restore it, as migpipe -cachefile does.
func learnedStore(d *db.DB) ([]byte, error) {
	key, err := buildKey()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "store5-"+key+".snap")
	snap, err := os.ReadFile(path)
	if err == nil {
		return snap, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: learning the 5-input store cold over the suite (once per build) into %s\n", path)
	start := time.Now()
	suite, err := prepareSuite(context.Background())
	if err != nil {
		return nil, err
	}
	store := db.NewOnDemand(db.OnDemandOptions{})
	if _, err := runSuite(context.Background(), d, suite, store, nil); err != nil {
		return nil, err
	}
	if _, err := db.SaveSnapshotFile(path, nil, store); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: learned %d classes (%d ladders) in %v\n", store.Len(), store.Synths(), time.Since(start))
	return os.ReadFile(path)
}

// restore returns a fresh 5-input store holding snap (empty for nil).
func restore(d *db.DB, snap []byte) (*db.OnDemand, error) {
	store := db.NewOnDemand(db.OnDemandOptions{})
	if snap != nil {
		if _, err := db.ReadSnapshot(bytes.NewReader(snap), d, nil, store); err != nil {
			return nil, fmt.Errorf("restoring the 5-input store: %w", err)
		}
	}
	return store, nil
}

// runSuite optimizes the circuits with resyn-x on the suite worker pool,
// sharing store; check, when non-nil, is installed as the PassCheck hook.
// A job error fails the run.
func runSuite(ctx context.Context, d *db.DB, suite []prepared, store *db.OnDemand,
	check func(string, int, *mig.MIG, *mig.MIG) error) ([]engine.Result, error) {
	p, err := engine.Preset(suiteScript)
	if err != nil {
		return nil, err
	}
	p.DB = d
	p.PassCheck = check
	jobs := make([]engine.Job, len(suite))
	for i, c := range suite {
		jobs[i] = engine.Job{Name: c.name, M: c.m}
	}
	res, err := engine.RunBatch(ctx, p, jobs, engine.BatchOptions{Workers: suiteWorkers, Exact5: store})
	if err != nil {
		return nil, err
	}
	for _, r := range res {
		if r.Err != nil {
			return nil, fmt.Errorf("job %s: %w", r.Name, r.Err)
		}
	}
	return res, nil
}

// suiteRunner runs resyn-x over prepared suite circuits: warm (store
// restored from the learned snapshot) over all eight, or cold (empty
// store) over coldCircuits.
type suiteRunner struct {
	d     *db.DB
	cold  bool
	suite []prepared // in suite order
	sizes []int      // their gate counts
	seed  uint64
	large int    // see jobOrder
	n     int    // rounds run so far
	snap  []byte // learned store; nil when cold
	jobs  []prepared
	last  []engine.Result // the last round's results, in jobs order
	// warmRef digests what a warm store makes of each cold circuit, for
	// suite-cold's bit-identity check.
	warmRef map[string]string

	// The traced round's data, for layers.
	tracedRes    []engine.Result
	tracedStore  *db.OnDemand
	tracedWindow interval
	counters     [4]uint64 // synths, failures, hits, misses over the traced batch
	captured     []capturedPass
}

// capturedPass is the input graph of one rewrite pass, recorded by the
// PassCheck hook for the replays.
type capturedPass struct {
	pass string
	m    *mig.MIG
}

func setupSuite(ctx context.Context, seed uint64, cold bool) (runner, error) {
	d, err := loadDB(ctx)
	if err != nil {
		return nil, err
	}
	var names []string
	large := largeGates
	if cold {
		// Two jobs on two workers start together, so their order cannot
		// move the makespan: shuffle them freely.
		names, large = coldCircuits, math.MaxInt
	}
	suite, err := prepareSuite(ctx, names...)
	if err != nil {
		return nil, err
	}
	s := &suiteRunner{d: d, cold: cold, suite: suite, seed: seed, large: large}
	for _, c := range suite {
		s.sizes = append(s.sizes, c.m.Size())
	}
	if !cold {
		_, span := obs.Start(ctx, "setup.restore")
		s.snap, err = learnedStore(d)
		if err == nil {
			_, err = restore(d, s.snap)
		}
		span.End()
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *suiteRunner) round(ctx context.Context, m mode) (roundResult, error) {
	store, err := restore(s.d, s.snap)
	if err != nil {
		return roundResult{}, err
	}
	var (
		mu       sync.Mutex
		captured []capturedPass
		hook     func(string, int, *mig.MIG, *mig.MIG) error
	)
	if m != plain {
		hook = func(pass string, _ int, before, _ *mig.MIG) error {
			if pass != "depthopt" {
				mu.Lock()
				captured = append(captured, capturedPass{pass, before})
				mu.Unlock()
			}
			return nil
		}
	}
	s.jobs = s.jobs[:0]
	for _, i := range jobOrder(s.seed, s.n, s.sizes, s.large) {
		s.jobs = append(s.jobs, s.suite[i])
	}
	s.n++
	before := [4]uint64{store.Synths(), store.Failures(), store.Hits(), store.Misses()}
	bctx, span := obs.Start(ctx, "bench.RunBatch")
	start := time.Now()
	res, err := runSuite(bctx, s.d, s.jobs, store, hook)
	wall := time.Since(start)
	span.End()
	if err != nil {
		return roundResult{}, err
	}
	rr := roundResult{wall: wall, attempted: len(res), decided: len(res)}
	for _, r := range res {
		for _, ps := range r.Stats.Passes {
			rr.latencies = append(rr.latencies, ps.Elapsed)
		}
		rr.gates += r.M.Size()
		rr.depth += r.M.Depth()
	}
	s.last = res
	if m == traced {
		after := [4]uint64{store.Synths(), store.Failures(), store.Hits(), store.Misses()}
		for i := range after {
			s.counters[i] = after[i] - before[i]
		}
		s.tracedRes, s.tracedStore, s.captured = res, store, captured
		s.tracedWindow = interval{start, start.Add(wall)}
	}
	return rr, nil
}

// check verifies the last round: each optimized graph is sim-equivalent
// to its input, suite-warm totals suiteGates, and suite-cold's graphs are
// bit-identical to those a warm store produces for the same circuits.
func (s *suiteRunner) check() error {
	if err := checkSuiteRound(s.jobs, s.last); err != nil {
		return err
	}
	if !s.cold {
		total := 0
		for _, r := range s.last {
			total += r.M.Size()
		}
		if total != suiteGates {
			return fmt.Errorf("resyn-x over the suite gave %d gates, want %d", total, suiteGates)
		}
		return nil
	}
	if s.warmRef == nil {
		var err error
		if s.warmRef, err = warmDigests(s.d, s.suite); err != nil {
			return err
		}
	}
	for _, r := range s.last {
		if digest(r.M) != s.warmRef[r.Name] {
			return fmt.Errorf("%s: the cold result differs from the warm one", r.Name)
		}
	}
	return nil
}

// warmDigests returns the digest of what a store restored from the
// learned snapshot makes of each of the circuits. It depends only on the
// build, so it is computed once per benchmark binary and kept in outDir
// next to the learned store.
func warmDigests(d *db.DB, suite []prepared) (map[string]string, error) {
	key, err := buildKey()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "warm-"+key+".json")
	var ref map[string]string
	if b, err := os.ReadFile(path); err == nil && json.Unmarshal(b, &ref) == nil && len(ref) == len(suite) {
		return ref, nil
	}
	snap, err := learnedStore(d)
	if err != nil {
		return nil, err
	}
	store, err := restore(d, snap)
	if err != nil {
		return nil, err
	}
	warm, err := runSuite(context.Background(), d, suite, store, nil)
	if err != nil {
		return nil, fmt.Errorf("warm reference run: %w", err)
	}
	ref = map[string]string{}
	for _, r := range warm {
		ref[r.Name] = digest(r.M)
	}
	b, err := json.Marshal(ref)
	if err != nil {
		return nil, err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return nil, err
	}
	return ref, os.Rename(tmp, path)
}

// digest is the SHA-256 of m's text serialization: equal digests mean
// bit-identical graphs.
func digest(m *mig.MIG) string {
	var b bytes.Buffer
	m.WriteText(&b) // writes to a bytes.Buffer cannot fail
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

// checkSuiteRound checks that every result is sim-equivalent to its job.
func checkSuiteRound(jobs []prepared, res []engine.Result) error {
	if len(res) != len(jobs) {
		return fmt.Errorf("%d results for %d jobs", len(res), len(jobs))
	}
	for i, r := range res {
		if err := simEquivalent(jobs[i].m, r.M); err != nil {
			return fmt.Errorf("%s: %w", jobs[i].name, err)
		}
	}
	return nil
}

// simEquivalent runs the simulation rung of the equivalence ladder:
// refute-only, but it catches any practical miscompilation.
func simEquivalent(a, b *mig.MIG) error {
	eq, ce, _, err := mig.EquivalentOpt(a, b, mig.EquivOptions{NoSAT: true, Seed: 1})
	if err != nil {
		return err
	}
	if !eq {
		return fmt.Errorf("not equivalent: %v", ce)
	}
	return nil
}

func (s *suiteRunner) layers(spans []*obs.Span) map[string]float64 {
	out := map[string]float64{}
	shares, outside := passWallShares(spans, s.tracedWindow)
	for name, v := range shares {
		out["engine.pass_s."+name] = v
	}
	out["engine.outside_pass_s"] = outside
	var hits, misses int
	for _, r := range s.tracedRes {
		st := r.Stats
		out["engine.iterations"] += float64(st.Iterations)
		out["extract.choices"] += float64(st.Choices)
		out["extract.saved"] += float64(st.ExtractSaved)
		hits += st.CacheHits
		misses += st.CacheMisses
		for _, ps := range st.Passes {
			if ps.Name == "depthopt" {
				out["depthopt.gates_added"] += float64(ps.SizeAfter - ps.SizeBefore)
			} else {
				out["rewrite.replacements"] += float64(ps.Replacements)
			}
		}
	}
	out["db.cache_lookups"] = float64(hits + misses)
	if hits+misses > 0 {
		out["db.cache_hit_rate"] = float64(hits) / float64(hits+misses)
	}
	out["exact.ladders"] = float64(s.counters[0])
	out["exact.ladder_failed"] = float64(s.counters[1])
	out["db.lookup5_hits"] = float64(s.counters[2])
	out["db.lookup5_misses"] = float64(s.counters[3])
	self := selfSeconds(spans, "rewrite.evaluate", "rewrite.commit", "rewrite.extract", "exact5.ladder")
	out["rewrite.evaluate_s"] = self["rewrite.evaluate"]
	out["rewrite.commit_s"] = self["rewrite.commit"]
	out["extract.select_s"] = self["rewrite.extract"]
	out["exact.ladder_s"] = sumSeconds(durations(spans, "exact5.ladder"))
	out["exact.conflicts"] = sumIntAttr(spans, "exact5.ladder", "conflicts")
	out["depthopt.prepare_s"] = sumSeconds(durations(spans, "setup.prepare"))
	for k, v := range replay(s.d, s.tracedStore, s.captured) {
		out[k] = v
	}
	return out
}

func (s *suiteRunner) close() {}

// replaySink keeps the replayed calls' results observable, so the
// compiler cannot drop them.
var replaySink int

// replay re-runs the cut, NPN and database layers on the input graph of
// every rewrite pass the traced batch ran, after the batch so the replays
// do not inflate pass times: cut enumeration at the pass's cut width on
// a reused workspace, as the pass enumerates, then npn.Canonize and
// DB.Lookup on the 4-input truth tables of the enumerated cuts and
// OnDemand.Lookup on the 5-input ones. npn.Canonize5 is replayed once per
// distinct 5-input function, as often as the store's canonization memo
// lets the batch call it. The 5-input lookups go to a copy of the batch's
// store under a cancelled context, so a class the batch never asked for
// cannot start a ladder.
func replay(d *db.DB, store *db.OnDemand, passes []capturedPass) map[string]float64 {
	out := map[string]float64{}
	if len(passes) == 0 {
		return out
	}
	var buf bytes.Buffer
	if _, err := db.WriteSnapshot(&buf, nil, store); err != nil {
		return out
	}
	copyStore, err := restore(d, buf.Bytes())
	if err != nil {
		return out
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	var (
		enum, canon4, canon5, lookup time.Duration
		cuts, lookups                int
		tt4, tt5                     []tt.TT
		ws                           = cut.NewWorkspace()
		distinct5                    = map[uint64]bool{}
		sink                         int
	)
	for _, p := range passes {
		k := 4
		if strings.Contains(p.pass, "5") {
			k = 5
		}
		start := time.Now()
		sets := ws.Enumerate(p.m, cut.Options{K: k})
		enum += time.Since(start)
		tt4, tt5 = tt4[:0], tt5[:0]
		for id := p.m.NumPIs() + 1; id < len(sets); id++ {
			for _, c := range sets[id] {
				if c.N == 1 && c.L[0] == mig.ID(id) {
					continue // the trivial cut
				}
				cuts++
				if c.N <= 4 {
					tt4 = append(tt4, tt.New(4, uint64(uint16(c.TT))))
				} else if f := tt.New(5, uint64(c.TT)); f.SupportSize() == 5 {
					tt5 = append(tt5, f)
					distinct5[f.Bits] = true
				}
			}
		}
		start = time.Now()
		for _, f := range tt4 {
			r, _ := npn.Canonize(f)
			sink += int(r.Bits)
		}
		canon4 += time.Since(start)
		start = time.Now()
		for _, f := range tt4 {
			if _, _, ok := d.Lookup(f); ok {
				sink++
			}
		}
		for _, f := range tt5 {
			if _, _, ok := copyStore.Lookup(cancelled, f); ok {
				sink++
			}
		}
		lookup += time.Since(start)
		lookups += len(tt4) + len(tt5)
	}
	start := time.Now()
	for bits := range distinct5 {
		r, _ := npn.Canonize5(tt.New(5, bits))
		sink += int(r.Bits)
	}
	canon5 = time.Since(start)
	replaySink = sink
	out["cut.enumerate_s"] = enum.Seconds()
	out["cut.cuts"] = float64(cuts)
	out["npn.canon4_s"] = canon4.Seconds()
	out["npn.canon5_s"] = canon5.Seconds()
	out["npn.functions5"] = float64(len(distinct5))
	out["db.lookup_s"] = lookup.Seconds()
	out["db.lookups"] = float64(lookups)
	return out
}
