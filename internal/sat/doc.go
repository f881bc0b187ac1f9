// Package sat implements a conflict-driven clause-learning (CDCL) SAT
// solver in pure Go.
//
// The paper solves its exact-synthesis decision problems with the Z3 SMT
// solver. The constraints of Sec. III are finite-domain Boolean constraints,
// so they bit-blast directly to CNF; this package provides the solver for
// the resulting formulas. The design follows the classic MiniSat recipe:
// two-watched-literal propagation, first-UIP conflict analysis with
// recursive clause minimization, VSIDS variable activities with phase
// saving, Luby restarts, and activity/LBD-based learnt-clause deletion
// that compacts deleted clauses out of the database.
//
// Role in the functional-hashing flow: the solver is an offline substrate.
// It powers exact synthesis (internal/exact) when the minimum-MIG database
// is generated, and combinational equivalence checking (internal/mig's
// Equivalent) when optimized graphs are verified. It is never on the
// rewriting hot path.
//
// Concurrency contract: a Solver is single-goroutine — it mutates its
// clause database, trail and activity state on every call and performs no
// locking. Run concurrent SAT work by giving each goroutine its own
// Solver; distinct solvers share nothing.
package sat
