package engine

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sort"
	"time"

	"mighash/internal/db"
	"mighash/internal/depthopt"
	"mighash/internal/mig"
	"mighash/internal/obs"
	"mighash/internal/rewrite"
)

// Objective selects the convergence metric of a pipeline.
type Objective int

const (
	// ObjectiveSize minimizes (size, depth) lexicographically — the
	// paper's setting: functional hashing for size, depth as tiebreak.
	ObjectiveSize Objective = iota
	// ObjectiveDepth minimizes (depth, size) lexicographically.
	ObjectiveDepth
)

func (o Objective) String() string {
	if o == ObjectiveDepth {
		return "depth"
	}
	return "size"
}

// better reports whether cost a = (size, depth) beats cost b under o.
func (o Objective) better(aSize, aDepth, bSize, bDepth int) bool {
	if o == ObjectiveDepth {
		return aDepth < bDepth || (aDepth == bDepth && aSize < bSize)
	}
	return aSize < bSize || (aSize == bSize && aDepth < bDepth)
}

// Pipeline is a composable optimization script: an ordered list of passes
// run repeatedly until the script stops improving the graph. A Pipeline
// is immutable during Run and may be used by many goroutines at once
// (RunBatch does exactly that).
type Pipeline struct {
	// Name labels the script in stats and CLIs ("resyn", "custom", …).
	Name string
	// Passes is the script body, executed in order each iteration.
	Passes []Pass
	// Objective selects the convergence metric (default ObjectiveSize).
	Objective Objective
	// MaxIterations caps the number of script rounds (default 10). The
	// pipeline stops earlier as soon as a full round fails to improve the
	// best cost seen, which is the common exit.
	MaxIterations int
	// DB supplies the minimum-MIG database; nil loads the embedded one.
	DB *db.DB
	// Exact5 is the on-demand 5-input exact-synthesis store feeding the
	// K = 5 passes ("TF5" and friends, the resyn5/size5 presets). When
	// nil each Run allocates a private store with default budgets; share
	// one db.NewOnDemand across runs and batch workers so every class is
	// synthesized once per process — and, with BatchOptions.CacheFile,
	// once per cache file. K = 4 scripts never touch it.
	Exact5 *db.OnDemand
	// Workers bounds intra-graph parallelism of the rewrite passes: best
	// cuts of independent fanout-free regions are evaluated concurrently
	// and committed serially, so the optimized graphs are bit-identical
	// for every value. 0 or 1 evaluates serially. This
	// is how a single large MIG saturates the machine without the logic
	// duplication of SplitOutputs.
	Workers int
	// PassCheck, when non-nil, is invoked synchronously after every
	// executed pass with the pass name, the 1-based iteration, and the
	// graphs before and after the pass. A non-nil error aborts the run
	// with that error — this is the differential-verification hook: the
	// sim harness (internal/sim/diff) re-checks each pass against its
	// input cheaply enough to leave enabled in CI. Like Progress, one
	// callback can be invoked concurrently from different runs sharing a
	// pipeline, so it must be safe for concurrent use (the diff harness
	// is).
	PassCheck func(pass string, iteration int, before, after *mig.MIG) error
	// Progress, when non-nil, is invoked synchronously after every
	// executed pass with that pass's statistics, before the next pass
	// starts. This is the hook behind streaming per-pass stats (the HTTP
	// service's JSON-lines mode); the callback must be fast and must not
	// retain the PassStats slice internals. Because a Pipeline may be
	// shared by many RunContext calls at once, a single Progress callback
	// can be invoked concurrently from different runs — install a per-run
	// callback on a copy of the pipeline when attribution matters
	// (RunBatch does exactly that for per-job progress).
	Progress func(PassStats)
}

// PipelineStats reports one pipeline run.
type PipelineStats struct {
	Script      string `json:"script"`
	Iterations  int    `json:"iterations"` // completed script rounds
	Converged   bool   `json:"converged"`  // stopped by fixpoint, not by MaxIterations
	SizeBefore  int    `json:"size_before"`
	SizeAfter   int    `json:"size_after"`
	DepthBefore int    `json:"depth_before"`
	DepthAfter  int    `json:"depth_after"`
	// CacheHits and CacheMisses always read 0.
	//
	// Deprecated: the 4-input cut-cache they counted is gone; every cut
	// resolves through db.DB.Lookup. The fields remain only so existing
	// callers compile, and no output shows them.
	CacheHits, CacheMisses int `json:"-"`
	// Choice-aware extraction totals, summed over the run's extraction
	// passes (zero for greedy-only scripts).
	Choices      int           `json:"choices,omitempty"`
	ExtractSaved int           `json:"extract_saved,omitempty"`
	Passes       []PassStats   `json:"passes"`
	Elapsed      time.Duration `json:"elapsed_ns"`
}

func (s PipelineStats) String() string {
	return fmt.Sprintf("%s: size %d→%d, depth %d→%d, %d iterations (converged=%v), %v",
		s.Script, s.SizeBefore, s.SizeAfter, s.DepthBefore, s.DepthAfter,
		s.Iterations, s.Converged, s.Elapsed)
}

// New builds a custom pipeline over the given passes with default
// convergence settings.
func New(passes ...Pass) *Pipeline {
	return &Pipeline{Name: "custom", Passes: passes}
}

// NewScript builds a pipeline from pass names (see PassByName).
func NewScript(name string, passNames ...string) (*Pipeline, error) {
	p := &Pipeline{Name: name}
	for _, pn := range passNames {
		pass, ok := PassByName(pn)
		if !ok {
			return nil, fmt.Errorf("engine: unknown pass %q", pn)
		}
		p.Passes = append(p.Passes, pass)
	}
	return p, nil
}

// presets are the named scripts shipped with the engine, spelled as
// pass names. A preset "base" may have a K = 5 twin "base5" and a
// choice-aware twin "base-x".
func presets() map[string]*Pipeline {
	// The depth scripts give the depth optimizer a larger size budget
	// than its default tuning.
	deepDepthopt := DepthPass(depthopt.Options{SizeFactor: 8, MaxPasses: 40})
	return map[string]*Pipeline{
		// resyn interleaves cheap and aggressive size passes with a
		// budgeted depth restructuring, in the spirit of ABC's resyn
		// scripts and the paper's closing remark on repeated hashing.
		"resyn": {Passes: passes("TF", "depthopt", "BF", "TFD")},
		// resyn5 is resyn with a trailing K = 5 hashing pass. Rewrite
		// passes never grow the graph, so a resyn5 round is never worse
		// than the resyn round it extends (the exact5-smoke CI job pins
		// this on the suite).
		"resyn5": {Passes: passes("TF", "depthopt", "BF", "TFD", "TF5")},
		// resyn-x is resyn5 with the greedy TF and TF5 passes upgraded to
		// choice-aware extraction, which is never worse than its greedy
		// twin, so a resyn-x round is never worse than a resyn5 round
		// (the extract-smoke CI job pins this on the suite).
		"resyn-x": {Passes: passes("TFx", "depthopt", "BF", "TFD", "TF5x")},
		// size runs the strongest size variant to fixpoint; size5 adds
		// the K = 5 pass.
		"size":  {Passes: passes("BF")},
		"size5": {Passes: passes("BF", "TF5")},
		// depth alternates the depth optimizer with depth-preserving
		// hashing to recover the size it spends; depth-x inserts a
		// depth-objective extraction between the two.
		"depth":   {Objective: ObjectiveDepth, Passes: append([]Pass{deepDepthopt}, passes("TD")...)},
		"depth-x": {Objective: ObjectiveDepth, Passes: append([]Pass{deepDepthopt}, passes("Txd", "TD")...)},
		// quick is one TF pass: the cheapest useful cleanup.
		"quick": {Passes: passes("TF"), MaxIterations: 1},
	}
}

// passes resolves the pass names of a preset.
func passes(names ...string) []Pass {
	ps := make([]Pass, len(names))
	for i, n := range names {
		p, ok := PassByName(n)
		if !ok {
			panic("engine: preset names unknown pass " + n)
		}
		ps[i] = p
	}
	return ps
}

// Preset returns a named script. Besides the composite scripts ("resyn",
// "size", "depth", "quick", …), every pass name accepted by PassByName
// is a single-pass run-to-convergence script.
func Preset(name string) (*Pipeline, error) {
	if p, ok := presets()[name]; ok {
		p.Name = name
		return p, nil
	}
	if pass, ok := PassByName(name); ok {
		return &Pipeline{Name: name, Passes: []Pass{pass}}, nil
	}
	return nil, fmt.Errorf("engine: unknown script %q (have %v)", name, PresetNames())
}

// PresetNames lists every name Preset accepts, sorted. This is the
// single source of truth for "what scripts exist": the CLIs' error
// messages and the HTTP service's GET /v1/scripts both derive from it.
func PresetNames() []string {
	names := append(rewrite.VariantNames(), "depthopt")
	for n := range presets() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run optimizes m with the script and returns the best graph seen
// together with the run statistics. m itself is never modified.
func (p *Pipeline) Run(m *mig.MIG) (*mig.MIG, PipelineStats, error) {
	return p.RunContext(context.Background(), m)
}

// RunContext is Run with cancellation between passes.
func (p *Pipeline) RunContext(ctx context.Context, m *mig.MIG) (*mig.MIG, PipelineStats, error) {
	if len(p.Passes) == 0 {
		return nil, PipelineStats{}, fmt.Errorf("engine: pipeline %q has no passes", p.Name)
	}
	d := p.DB
	if d == nil {
		var err error
		if d, err = db.Load(); err != nil {
			return nil, PipelineStats{}, err
		}
	}
	exact5 := p.Exact5
	if exact5 == nil {
		exact5 = db.NewOnDemand(db.OnDemandOptions{})
	}

	start := time.Now()
	st := PipelineStats{
		Script:     p.Name,
		SizeBefore: m.Size(), DepthBefore: m.Depth(),
	}
	ctx, pspan := obs.Start(ctx, "pipeline")
	pspan.SetStr("script", p.Name)
	pspan.SetInt("size_before", int64(st.SizeBefore))
	defer func() {
		pspan.SetInt("size_after", int64(st.SizeAfter))
		pspan.SetInt("iterations", int64(st.Iterations))
		pspan.End()
	}()
	env := passEnv{
		ctx: ctx, d: d, exact5: exact5,
		ws: rewrite.NewWorkspace(), workers: p.Workers,
	}

	maxIter := p.MaxIterations
	if maxIter <= 0 {
		maxIter = 10
	}
	cur := m
	best, bestSize, bestDepth := m, st.SizeBefore, st.DepthBefore
	for st.Iterations < maxIter {
		if err := ctx.Err(); err != nil {
			return nil, PipelineStats{}, err
		}
		st.Iterations++
		// Every pass reports the size/depth of its result, so the round's
		// final cost is read off the last PassStats instead of re-walking
		// the graph twice per round.
		size, depth := bestSize, bestDepth
		err := func() error {
			ictx, ispan := obs.Start(ctx, "iteration")
			defer ispan.End()
			ispan.SetInt("round", int64(st.Iterations))
			ienv := env
			ienv.ctx = ictx
			for _, pass := range p.Passes {
				if err := ctx.Err(); err != nil {
					return err
				}
				next, ps := p.runPass(st.Iterations, pass, cur, ienv)
				if p.PassCheck != nil {
					if err := p.PassCheck(ps.Name, st.Iterations, cur, next); err != nil {
						return err
					}
				}
				st.Passes = append(st.Passes, ps)
				st.Choices += ps.Choices
				st.ExtractSaved += ps.ExtractSaved
				cur, size, depth = next, ps.SizeAfter, ps.DepthAfter
			}
			return nil
		}()
		if err != nil {
			return nil, PipelineStats{}, err
		}
		if p.Objective.better(size, depth, bestSize, bestDepth) {
			best, bestSize, bestDepth = cur, size, depth
			continue
		}
		// Fixpoint: a whole round without improvement. Later rounds would
		// start from the same graph and repeat the same result.
		st.Converged = true
		break
	}
	st.SizeAfter, st.DepthAfter = bestSize, bestDepth
	st.Elapsed = time.Since(start)
	return best, st, nil
}

// runPass executes one pass inside a "pass" span. The span is ended
// before the user Progress callback is invoked — the callback's cost is
// not the pass's cost — and a deferred End (idempotent) guarantees a
// panicking callback can never leave the span open.
func (p *Pipeline) runPass(iter int, pass Pass, cur *mig.MIG, env passEnv) (*mig.MIG, PassStats) {
	ctx, span := obs.Start(env.ctx, "pass")
	defer span.End()
	span.SetStr("name", pass.Name())
	span.SetInt("iteration", int64(iter))
	// The pass label stacks on the job's circuit/preset labels (pprof.Do
	// nests), so a CPU profile of a busy server slices down to one pass
	// of one circuit under one preset.
	var (
		next *mig.MIG
		ps   PassStats
	)
	pprof.Do(ctx, pprof.Labels("pass", pass.Name()), func(ctx context.Context) {
		env.ctx = ctx
		next, ps = pass.run(cur, env)
	})
	ps.Iteration = iter
	span.SetInt("size_before", int64(ps.SizeBefore))
	span.SetInt("size_after", int64(ps.SizeAfter))
	span.SetInt("replacements", int64(ps.Replacements))
	span.End()
	if p.Progress != nil {
		p.Progress(ps)
	}
	return next, ps
}
