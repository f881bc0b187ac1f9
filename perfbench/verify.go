package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mighash/internal/engine"
	"mighash/internal/mig"
	"mighash/internal/obs"
	"mighash/internal/sim/diff"
)

// verifyBudget is the per-check SAT budget.
const verifyBudget = time.Second

// verifyParallel is how many checks run at once.
const verifyParallel = 2

// verifyScript is the preset whose results the verify pairs check.
const verifyScript = "resyn"

// pairCheck is one prepared equivalence check.
type pairCheck struct {
	name   string
	a, b   *mig.MIG // prepared cone, optimized cone (or its mutant)
	mutant bool     // the correct verdict is "inequivalent"
}

// verdict is the outcome of one check.
type verdict struct {
	decided bool // a verdict within the budget
	eq      bool
	failed  error // an error other than budget expiry
	latency time.Duration

	// Traced rounds run the rungs separately.
	simRefuted, satProven, satTimeout bool
}

// verifyRunner drives the verify workload.
type verifyRunner struct {
	checks []pairCheck
	seed   uint64
	n      int // rounds run so far
	gates  int // of the optimized cones
	depth  int
	last   []verdict
}

func setupVerify(ctx context.Context, seed uint64) (runner, error) {
	d, err := loadDB(ctx)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, p := range verifyPairs {
		if !slices.Contains(names, p.Circuit) {
			names = append(names, p.Circuit)
		}
	}
	suite, err := prepareSuite(ctx, names...)
	if err != nil {
		return nil, err
	}
	jobs := make([]engine.Job, len(suite))
	index := map[string]int{}
	for i, c := range suite {
		jobs[i] = engine.Job{Name: c.name, M: c.m}
		index[c.name] = i
	}
	p, err := engine.Preset(verifyScript)
	if err != nil {
		return nil, err
	}
	p.DB = d
	octx, span := obs.Start(ctx, "setup.optimize")
	res, err := engine.RunBatch(octx, p, jobs, engine.BatchOptions{Workers: suiteWorkers})
	span.End()
	if err != nil {
		return nil, err
	}
	for _, r := range res {
		if r.Err != nil {
			return nil, fmt.Errorf("optimizing %s: %w", r.Name, r.Err)
		}
	}
	s := &verifyRunner{seed: seed}
	type pair struct{ a, b *mig.MIG }
	pairs := make([]pair, len(verifyPairs))
	for i, vp := range verifyPairs {
		c := index[vp.Circuit]
		pairs[i] = pair{engine.ExtractCone(suite[c].m, vp.Output), engine.ExtractCone(res[c].M, vp.Output)}
		s.gates += pairs[i].b.Size()
		s.depth += pairs[i].b.Depth()
	}
	for _, c := range verifyChecks(seed, len(pairs)) {
		vp, pr := verifyPairs[c.Pair], pairs[c.Pair]
		pc := pairCheck{name: fmt.Sprintf("%s.out%d", vp.Circuit, vp.Output), a: pr.a, b: pr.b}
		if c.Mutant {
			pc.name += ".mutant"
			pc.b, pc.mutant = diff.Mutant(pr.b, c.MutantK), true
		}
		s.checks = append(s.checks, pc)
	}
	return s, nil
}

func (s *verifyRunner) round(ctx context.Context, m mode) (roundResult, error) {
	verdicts := make([]verdict, len(s.checks))
	order := verifyOrder(s.seed, s.n, len(s.checks))
	s.n++
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < verifyParallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(order) {
					return
				}
				i := order[k]
				if m == traced {
					verdicts[i] = runRungs(ctx, s.checks[i])
				} else {
					verdicts[i] = runCheck(s.checks[i])
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	s.last = verdicts
	rr := roundResult{wall: wall, attempted: len(verdicts), gates: s.gates, depth: s.depth}
	for _, v := range verdicts {
		if v.failed != nil {
			rr.failed++
			continue
		}
		if v.decided {
			rr.decided++
		}
		rr.latencies = append(rr.latencies, v.latency)
	}
	return rr, nil
}

// runCheck runs the whole ladder (simulation, then SAT under the budget)
// in one EquivalentOpt call, as a caller of the library would.
func runCheck(c pairCheck) verdict {
	start := time.Now()
	eq, _, st, err := mig.EquivalentOpt(c.a, c.b, mig.EquivOptions{Timeout: verifyBudget, Seed: 1})
	return classify(eq, st, err, time.Since(start))
}

// classify turns an EquivalentOpt outcome into a verdict. An error after
// the SAT rung started is the budget running out; any other error is a
// failure.
func classify(eq bool, st mig.EquivStats, err error, latency time.Duration) verdict {
	v := verdict{latency: latency, eq: eq}
	switch {
	case err == nil:
		v.decided = true
	case !st.SATRan:
		v.failed = err
	}
	return v
}

// runRungs runs the ladder one rung per EquivalentOpt call, each under
// its own span: the simulation rung (NoSAT), then, when simulation found
// no difference, the SAT rung alone (SimPatterns < 0) under the budget.
func runRungs(ctx context.Context, c pairCheck) verdict {
	ctx, span := obs.Start(ctx, "bench.check")
	defer span.End()
	span.SetStr("pair", c.name)
	start := time.Now()
	_, sspan := obs.Start(ctx, "verify.sim")
	eq, _, st, err := mig.EquivalentOpt(c.a, c.b, mig.EquivOptions{NoSAT: true, Seed: 1})
	sspan.End()
	if err != nil || !eq {
		v := classify(eq, st, err, time.Since(start))
		v.simRefuted = err == nil
		return v
	}
	_, tspan := obs.Start(ctx, "verify.sat")
	eq, _, st, err = mig.EquivalentOpt(c.a, c.b, mig.EquivOptions{SimPatterns: -1, Timeout: verifyBudget})
	tspan.End()
	v := classify(eq, st, err, time.Since(start))
	v.satProven = v.decided
	v.satTimeout = err != nil && v.failed == nil
	return v
}

// check requires zero wrong verdicts in the last round: every mutant
// refuted, and no equivalent pair refuted. Undecided checks are not
// wrong.
func (s *verifyRunner) check() error {
	for i, v := range s.last {
		c := s.checks[i]
		switch {
		case c.mutant && !(v.decided && !v.eq):
			return fmt.Errorf("%s: the mutant was not refuted", c.name)
		case !c.mutant && v.decided && !v.eq:
			return fmt.Errorf("%s: an equivalent pair was refuted", c.name)
		}
	}
	return nil
}

func (s *verifyRunner) layers(spans []*obs.Span) map[string]float64 {
	out := map[string]float64{
		"verify.sim_s":       sumSeconds(durations(spans, "verify.sim")),
		"verify.sat_s":       sumSeconds(durations(spans, "verify.sat")),
		"depthopt.prepare_s": sumSeconds(durations(spans, "setup.prepare")),
	}
	for _, v := range s.last {
		if v.simRefuted {
			out["verify.sim_refuted"]++
		}
		if v.satProven {
			out["verify.sat_proven"]++
		}
		if v.satTimeout {
			out["verify.sat_timeouts"]++
		}
	}
	return out
}

func (s *verifyRunner) close() {}
