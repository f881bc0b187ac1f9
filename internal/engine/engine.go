package engine

import (
	"context"
	"fmt"
	"time"

	"mighash/internal/db"
	"mighash/internal/depthopt"
	"mighash/internal/mig"
	"mighash/internal/rewrite"
)

// PassStats reports one executed pass of a pipeline run.
type PassStats struct {
	Name        string `json:"name"`
	Iteration   int    `json:"iteration"` // 1-based script round
	SizeBefore  int    `json:"size_before"`
	SizeAfter   int    `json:"size_after"`
	DepthBefore int    `json:"depth_before"`
	DepthAfter  int    `json:"depth_after"`
	// Replacements counts database substitutions (rewrite passes) or
	// accepted reassociations (depth passes).
	Replacements int `json:"replacements"`
	// Choice-aware extraction of this pass (zero unless the pass ran
	// with rewrite.Options.Extract): recorded choices, and the gates the
	// extracted cover saved over the pass's greedy twin.
	Choices      int           `json:"choices,omitempty"`
	ExtractSaved int           `json:"extract_saved,omitempty"`
	Elapsed      time.Duration `json:"elapsed_ns"`
}

func (s PassStats) String() string {
	return fmt.Sprintf("%s[%d]: size %d→%d, depth %d→%d",
		s.Name, s.Iteration, s.SizeBefore, s.SizeAfter, s.DepthBefore, s.DepthAfter)
}

// passEnv is the shared context a pass executes in: the database shared
// by the whole run, the on-demand 5-input store feeding the
// K = 5 passes, the run's context (cancelling in-flight exact synthesis),
// the rewrite workspace reused across all passes and iterations of one
// pipeline run (each RunContext owns a private one, so concurrent batch
// workers never share scratch), and the intra-graph worker budget.
type passEnv struct {
	ctx     context.Context
	d       *db.DB
	exact5  *db.OnDemand
	ws      *rewrite.Workspace
	workers int
}

// Pass is one named transformation step of a pipeline. The zero value is
// invalid; construct passes with RewritePass, DepthPass or PassByName.
type Pass struct {
	name string
	run  func(m *mig.MIG, env passEnv) (*mig.MIG, PassStats)
}

// Name returns the script name of the pass ("BF", "depthopt", …).
func (p Pass) Name() string { return p.name }

// RewritePass wraps one functional-hashing configuration. The pass name
// is the paper acronym of opt (rewrite.VariantName, "TF5" etc. for the
// K = 5 extensions); opt.Exact5 and opt.Ctx are overridden by the
// pipeline's environment.
func RewritePass(opt rewrite.Options) Pass {
	name := rewrite.VariantName(opt)
	return Pass{
		name: name,
		run: func(m *mig.MIG, env passEnv) (*mig.MIG, PassStats) {
			// Copy the captured options: concurrent batch workers share
			// this Pass, so the closure state must stay read-only.
			o := opt
			o.Exact5 = env.exact5
			o.Ctx = env.ctx
			o.Workspace = env.ws
			o.Workers = env.workers
			res, st := rewrite.Run(m, env.d, o)
			return res, PassStats{
				Name:       st.Variant,
				SizeBefore: st.SizeBefore, SizeAfter: st.SizeAfter,
				DepthBefore: st.DepthBefore, DepthAfter: st.DepthAfter,
				Replacements: st.Replacements,
				Choices:      st.Choices,
				ExtractSaved: st.ExtractSaved,
				Elapsed:      st.Elapsed,
			}
		},
	}
}

// DepthPass wraps the algebraic depth optimizer.
func DepthPass(opt depthopt.Options) Pass {
	return Pass{
		name: "depthopt",
		run: func(m *mig.MIG, env passEnv) (*mig.MIG, PassStats) {
			res, st := depthopt.Optimize(m, opt)
			return res, PassStats{
				Name:       "depthopt",
				SizeBefore: st.SizeBefore, SizeAfter: st.SizeAfter,
				DepthBefore: st.DepthBefore, DepthAfter: st.DepthAfter,
				Replacements: st.Passes,
				Elapsed:      st.Elapsed,
			}
		},
	}
}

// PassByName resolves the script name of a pass: "depthopt" (the depth
// optimizer with its default production tuning) or any variant name
// rewrite.ParseVariant accepts, such as "TF", "TF5" or "TF5x".
func PassByName(name string) (Pass, bool) {
	if name == "depthopt" {
		return DepthPass(depthopt.Options{SizeFactor: 1.2, MaxPasses: 10}), true
	}
	opt, err := rewrite.ParseVariant(name)
	if err != nil {
		return Pass{}, false
	}
	return RewritePass(opt), true
}
