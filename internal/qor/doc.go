// Package qor is the durable quality-of-results trend store and
// regression gate: the repository's headline numbers (gates, depth,
// runtime per circuit×script) as an append-only, versioned record
// stream, with the machinery to append, merge, render and gate them.
//
// The paper's entire claim is a QoR trajectory; this package makes the
// repository's own trajectory durable and enforceable. A Record is one
// circuit optimized by one script: the metric triple, the pass/synthesis
// breakdown explaining it, and Provenance (git SHA, timestamp,
// host os/arch, GOMAXPROCS from the producing build via
// runtime/debug.ReadBuildInfo) pinning where the number came from.
// Records with one Run ID form a run; a history is any concatenation of
// runs.
//
// Storage is one JSON record per line (HistoryFile inside a history
// directory). Append-only JSONL is deliberately boring: appends are
// atomic at line granularity, merges are concatenation + Merge dedupe
// (first record per (run, circuit, script) wins), and Read skips —
// counting, never failing on — malformed lines and unknown schema
// versions, so a torn tail from a crashed writer or records from a newer
// build degrade to partial history instead of an unreadable store.
//
// Compare is the regression gate: it pairs a candidate run against a
// baseline by (circuit, script) and issues per-circuit and
// suite-aggregate verdicts. Gates and depth compare exactly — the
// optimizer is deterministic, any growth is a real change — while
// runtime is noise-aware: a regression must exceed both a relative
// tolerance (GateOptions.RuntimeTolerance) and an absolute floor
// (GateOptions.RuntimeFloor). Suite aggregates (total gates, max depth,
// total runtime) cover only circuits present on both sides, and
// membership changes are reported separately so a shrinking suite cannot
// masquerade as an improvement. cmd/migtrend wires this into the CLI
// (-history/-gate) and the CI wires that into a hard gate with history
// persisted across runs via an artifact chain.
//
// Concurrency: records and reports are plain values; AppendFile relies
// on O_APPEND for cross-process safety of whole-line appends. The
// package has no internal locking and no mutable package state.
package qor
