// Package engine turns the single-shot optimization passes of this
// repository into a production-style optimization engine:
//
//   - Pass wraps one transformation (a functional-hashing variant of
//     internal/rewrite, or the algebraic depth optimizer of
//     internal/depthopt) behind a uniform interface. Pass names are
//     "depthopt" and the variant grammar BF | (T|TF)5?x? | (TD|TFD)5? |
//     Txd that rewrite.ParseVariant parses ("5": 5-input cuts, "x"/"xd":
//     choice-aware extraction), so no name is listed by hand.
//   - Pipeline composes named passes into a script and runs the script to
//     convergence, keeping the best graph seen and reporting per-pass
//     statistics. Preset scripts ("resyn", "size", "depth", "resyn5", …)
//     are pass-name lists that cover the common flows, their K = 5 and
//     choice-aware twins ("resyn5", "resyn-x") included: the script
//     name alone selects what runs. Custom scripts are built with New or
//     NewScript.
//     PresetNames is the single source of truth for what exists — the
//     CLIs and GET /v1/scripts derive from it.
//   - RunBatch optimizes many MIGs concurrently on a bounded worker pool
//     with deterministic result ordering and context cancellation.
//
// Every 4-feasible cut resolves through the immutable database of
// internal/db, whose NPN canonization and class index are dense table
// reads, so all pipelines share it without coordination. K = 5 scripts
// additionally share an on-demand exact-synthesis store (Pipeline.Exact5
// / BatchOptions.Exact5, budget via db.OnDemandOptions): 5-input classes
// are learned once per process and fed to every worker, with the run's
// context cancelling in-flight ladders. BatchOptions.CacheFile extends
// the learned store across processes: the batch warm-starts it from one
// on-disk snapshot and saves it back atomically afterwards, with corrupt
// snapshots degrading to a cold store (logged, never fatal). Optimized
// graphs are bit-identical warm or cold — a warm learned store just
// skips the ladders.
//
// Long-running consumers observe progress through callbacks:
// Pipeline.Progress fires after every executed pass, and
// BatchOptions.Progress adds the job index — this is what the HTTP
// service (internal/server) streams to clients as JSON lines.
//
// Concurrency contract: a Pipeline is immutable during Run/RunContext and
// may drive any number of concurrent runs; each run allocates its own
// rewrite workspace, so runs share only the immutable database and the
// (concurrency-safe) learned store. Within RunBatch, per-job stats and
// graphs are deterministic — independent of the worker count. Pass
// values are stateless and shareable; PassStats/PipelineStats are plain
// data.
package engine
