package sat

import (
	"math/rand"
	"slices"
	"testing"
)

func TestLitBasics(t *testing.T) {
	l := MkLit(3, false)
	if l.Var() != 3 || l.Sign() || l != PosLit(3) {
		t.Errorf("positive literal broken: %v", l)
	}
	n := l.Not()
	if n.Var() != 3 || !n.Sign() || n != NegLit(3) {
		t.Errorf("negation broken: %v", n)
	}
	if n.Not() != l {
		t.Error("double negation is not identity")
	}
	if l.String() != "4" || n.String() != "-4" {
		t.Errorf("String: %q %q", l.String(), n.String())
	}
}

func TestEmptyFormulaSat(t *testing.T) {
	s := New()
	if got := s.Solve(); got != Sat {
		t.Errorf("empty formula: %v", got)
	}
}

func TestSingleUnit(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(PosLit(v))
	if s.Solve() != Sat {
		t.Fatal("unit formula should be SAT")
	}
	if !s.Value(v) {
		t.Error("unit literal not satisfied")
	}
}

func TestContradictingUnits(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(PosLit(v))
	if ok := s.AddClause(NegLit(v)); ok {
		t.Error("adding contradicting unit should report failure")
	}
	if s.Solve() != Unsat {
		t.Error("contradicting units should be UNSAT")
	}
}

func TestTautologyDropped(t *testing.T) {
	s := New()
	v := s.NewVar()
	w := s.NewVar()
	s.AddClause(PosLit(v), NegLit(v), PosLit(w))
	if s.NumClauses() != 0 {
		t.Errorf("tautology retained: %d clauses", s.NumClauses())
	}
	if s.Solve() != Sat {
		t.Error("should be SAT")
	}
}

func TestSimpleImplicationChain(t *testing.T) {
	// x0 ∧ (x0→x1) ∧ (x1→x2) ∧ ... must force all true.
	s := New()
	const n = 50
	vars := make([]int, n)
	for i := range vars {
		vars[i] = s.NewVar()
	}
	s.AddClause(PosLit(vars[0]))
	for i := 0; i+1 < n; i++ {
		s.Implies(PosLit(vars[i]), PosLit(vars[i+1]))
	}
	if s.Solve() != Sat {
		t.Fatal("chain should be SAT")
	}
	for i, v := range vars {
		if !s.Value(v) {
			t.Fatalf("variable %d not forced true", i)
		}
	}
}

func TestUnsatTriangle(t *testing.T) {
	// (a∨b)(¬a∨b)(a∨¬b)(¬a∨¬b) is UNSAT.
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	s.AddClause(NegLit(a), PosLit(b))
	s.AddClause(PosLit(a), NegLit(b))
	s.AddClause(NegLit(a), NegLit(b))
	if s.Solve() != Unsat {
		t.Error("should be UNSAT")
	}
}

// pigeonhole encodes PHP(holes+1, holes), which is unsatisfiable.
func pigeonhole(s *Solver, pigeons, holes int) {
	v := make([][]int, pigeons)
	for p := range v {
		v[p] = make([]int, holes)
		for h := range v[p] {
			v[p][h] = s.NewVar()
		}
	}
	for p := 0; p < pigeons; p++ {
		lits := make([]Lit, holes)
		for h := 0; h < holes; h++ {
			lits[h] = PosLit(v[p][h])
		}
		s.AddClause(lits...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				s.AddClause(NegLit(v[p1][h]), NegLit(v[p2][h]))
			}
		}
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	for holes := 2; holes <= 6; holes++ {
		s := New()
		pigeonhole(s, holes+1, holes)
		if got := s.Solve(); got != Unsat {
			t.Errorf("PHP(%d,%d) = %v, want UNSAT", holes+1, holes, got)
		}
	}
}

func TestPigeonholeSat(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 5) // equal pigeons and holes is satisfiable
	if got := s.Solve(); got != Sat {
		t.Errorf("PHP(5,5) = %v, want SAT", got)
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	if s.Solve(NegLit(a), NegLit(b)) != Unsat {
		t.Error("assumptions ¬a,¬b should make it UNSAT")
	}
	if s.Solve(NegLit(a)) != Sat {
		t.Fatal("assumption ¬a should be SAT")
	}
	if s.Value(a) || !s.Value(b) {
		t.Error("model violates assumption")
	}
	// The solver must remain usable and satisfiable without assumptions.
	if s.Solve() != Sat {
		t.Error("solver unusable after assumption UNSAT")
	}
}

func TestIncrementalAddBetweenSolves(t *testing.T) {
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	s.AddClause(PosLit(a), PosLit(b))
	if s.Solve() != Sat {
		t.Fatal("phase 1 should be SAT")
	}
	s.AddClause(NegLit(a))
	s.AddClause(NegLit(b), PosLit(c))
	if s.Solve() != Sat {
		t.Fatal("phase 2 should be SAT")
	}
	if s.Value(a) || !s.Value(b) || !s.Value(c) {
		t.Error("phase 2 model wrong")
	}
	s.AddClause(NegLit(c))
	if s.Solve() != Unsat {
		t.Error("phase 3 should be UNSAT")
	}
}

func TestConflictBudget(t *testing.T) {
	s := New()
	pigeonhole(s, 9, 8) // hard enough to exceed a tiny budget
	s.MaxConflict = 5
	if got := s.Solve(); got != Unknown {
		t.Skipf("instance solved within 5 conflicts (%v); budget path untested", got)
	}
	s.MaxConflict = 0
	if got := s.Solve(); got != Unsat {
		t.Errorf("after lifting budget: %v, want UNSAT", got)
	}
}

// bruteForce decides satisfiability of a small CNF by enumeration.
func bruteForce(nVars int, cnf [][]Lit) bool {
	for m := 0; m < 1<<uint(nVars); m++ {
		ok := true
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				val := (m>>uint(l.Var()))&1 == 1
				if val != l.Sign() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	for trial := 0; trial < 300; trial++ {
		nVars := 4 + rng.Intn(9) // 4..12 variables
		nCls := 2 + rng.Intn(nVars*5)
		cnf := make([][]Lit, nCls)
		for i := range cnf {
			k := 1 + rng.Intn(3)
			cl := make([]Lit, k)
			for j := range cl {
				cl[j] = MkLit(rng.Intn(nVars), rng.Intn(2) == 1)
			}
			cnf[i] = cl
		}
		s := New()
		for v := 0; v < nVars; v++ {
			s.NewVar()
		}
		for _, cl := range cnf {
			s.AddClause(cl...)
		}
		got := s.Solve()
		want := bruteForce(nVars, cnf)
		if (got == Sat) != want {
			t.Fatalf("trial %d: solver=%v bruteforce=%v cnf=%v", trial, got, want, cnf)
		}
		if got == Sat {
			// Verify the model actually satisfies every clause.
			for ci, cl := range cnf {
				sat := false
				for _, l := range cl {
					if s.ValueLit(l) {
						sat = true
						break
					}
				}
				if !sat {
					t.Fatalf("trial %d: model does not satisfy clause %d", trial, ci)
				}
			}
		}
	}
}

func TestEncodingHelpers(t *testing.T) {
	t.Run("ExactlyOne", func(t *testing.T) {
		s := New()
		lits := make([]Lit, 5)
		for i := range lits {
			lits[i] = PosLit(s.NewVar())
		}
		s.ExactlyOne(lits...)
		if s.Solve() != Sat {
			t.Fatal("exactly-one should be SAT")
		}
		count := 0
		for _, l := range lits {
			if s.ValueLit(l) {
				count++
			}
		}
		if count != 1 {
			t.Errorf("exactly-one model sets %d literals", count)
		}
		// Forcing two of them true must be UNSAT.
		if s.Solve(lits[0], lits[3]) != Unsat {
			t.Error("two true literals should violate exactly-one")
		}
	})
	t.Run("Majority", func(t *testing.T) {
		s := New()
		out, a, b, c := PosLit(s.NewVar()), PosLit(s.NewVar()), PosLit(s.NewVar()), PosLit(s.NewVar())
		s.Majority(out, a, b, c)
		for m := 0; m < 8; m++ {
			as := []Lit{a, b, c}
			for i := range as {
				if m>>uint(i)&1 == 0 {
					as[i] = as[i].Not()
				}
			}
			if s.Solve(as...) != Sat {
				t.Fatalf("majority inputs %03b should be consistent", m)
			}
			wantOut := m&3 == 3 || m&5 == 5 || m&6 == 6
			if s.ValueLit(out) != wantOut {
				t.Fatalf("majority(%03b) = %v, want %v", m, s.ValueLit(out), wantOut)
			}
		}
	})
	t.Run("XorEqualIf", func(t *testing.T) {
		s := New()
		g, a, b, c := PosLit(s.NewVar()), PosLit(s.NewVar()), PosLit(s.NewVar()), PosLit(s.NewVar())
		s.XorEqualIf(g, a, b, c)
		// With the guard asserted, a must equal b⊕c for all 4 (b,c) pairs.
		for m := 0; m < 4; m++ {
			bl, cl := b, c
			if m&1 == 0 {
				bl = bl.Not()
			}
			if m&2 == 0 {
				cl = cl.Not()
			}
			if s.Solve(g, bl, cl) != Sat {
				t.Fatal("guarded XOR inconsistent")
			}
			want := (m&1 == 1) != (m&2 == 2)
			if s.ValueLit(a) != want {
				t.Fatalf("xor(%02b): a=%v want %v", m, s.ValueLit(a), want)
			}
		}
		// With the guard false, a is unconstrained.
		if s.Solve(g.Not(), a, b, c) != Sat || s.Solve(g.Not(), a.Not(), b, c) != Sat {
			t.Error("guard=false should leave a free")
		}
	})
}

func TestStatsPopulated(t *testing.T) {
	s := New()
	pigeonhole(s, 6, 5)
	s.Solve()
	if s.Stats.Conflicts == 0 || s.Stats.Propagations == 0 {
		t.Errorf("stats not collected: %+v", s.Stats)
	}
}

// randomCNFSession builds a seeded random 3-SAT instance near the
// satisfiability threshold and runs an incremental session on it: a plain
// Solve, two Solves under assumptions, and a final Solve after a clause
// is added between calls. each runs after every Solve.
func randomCNFSession(seed int64, each func(s *Solver, st Status)) *Solver {
	rng := rand.New(rand.NewSource(seed))
	nVars := 140 + rng.Intn(60)
	nCls := nVars * 418 / 100
	s := New()
	for v := 0; v < nVars; v++ {
		s.NewVar()
	}
	for i := 0; i < nCls; i++ {
		s.AddClause(MkLit(rng.Intn(nVars), rng.Intn(2) == 1),
			MkLit(rng.Intn(nVars), rng.Intn(2) == 1),
			MkLit(rng.Intn(nVars), rng.Intn(2) == 1))
	}
	each(s, s.Solve())
	for r := 0; r < 2; r++ {
		each(s, s.Solve(MkLit(rng.Intn(nVars), rng.Intn(2) == 1), MkLit(rng.Intn(nVars), rng.Intn(2) == 1)))
	}
	s.AddClause(MkLit(rng.Intn(nVars), rng.Intn(2) == 1), MkLit(rng.Intn(nVars), rng.Intn(2) == 1))
	each(s, s.Solve())
	return s
}

// TestLearntCounterMatchesRecount checks the learnt-clause counter and
// the compacted database after every Solve of the incremental sessions:
// the counter equals a recount of the learnt clauses, and every watcher
// and trail reason refers to a clause that is still there.
func TestLearntCounterMatchesRecount(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		randomCNFSession(seed, func(s *Solver, st Status) {
			n := 0
			for i := range s.clauses {
				if s.clauses[i].learnt {
					n++
				}
			}
			if s.learnts != n {
				t.Errorf("seed %d after %v: learnt counter %d, recount %d", seed, st, s.learnts, n)
			}
			for li, ws := range s.watches {
				for _, w := range ws {
					c := &s.clauses[w.cref]
					if c.lits[0].Not() != Lit(li) && c.lits[1].Not() != Lit(li) {
						t.Fatalf("seed %d: watcher of %v points at clause %v, which does not watch it", seed, Lit(li).Not(), c.lits)
					}
				}
			}
			for _, l := range s.trail {
				if r := s.reason[l.Var()]; r >= 0 && !slices.Contains(s.clauses[r].lits, l) {
					t.Fatalf("seed %d: reason of %v is clause %v", seed, l, s.clauses[r].lits)
				}
			}
		})
	}
}

// TestRandomCNFStatsPinned pins the search itself: the counters of each
// incremental session are exact values recorded before reduceDB compacted
// the clause database, so removing deleted clauses (and counting learnt
// clauses instead of scanning for them) provably left every decision,
// propagation and conflict where it was.
func TestRandomCNFStatsPinned(t *testing.T) {
	want := []struct {
		seed   int64
		status []Status
		stats  Stats
	}{
		{1, []Status{Unsat, Unsat, Unsat, Unsat}, Stats{Conflicts: 4910, Decisions: 5880, Propagations: 179221, Restarts: 25, Learnt: 4900}},
		{2, []Status{Sat, Sat, Unsat, Sat}, Stats{Conflicts: 6479, Decisions: 7930, Propagations: 242140, Restarts: 33, Learnt: 6479}},
		{3, []Status{Sat, Unsat, Unsat, Sat}, Stats{Conflicts: 5438, Decisions: 6661, Propagations: 191392, Restarts: 35, Learnt: 5435}},
		{4, []Status{Unsat, Unsat, Unsat, Unsat}, Stats{Conflicts: 12858, Decisions: 15465, Propagations: 472637, Restarts: 56, Learnt: 12848}},
		{5, []Status{Unsat, Unsat, Unsat, Unsat}, Stats{Conflicts: 2122, Decisions: 2591, Propagations: 65699, Restarts: 13, Learnt: 2114}},
		{6, []Status{Unsat, Unsat, Unsat, Unsat}, Stats{Conflicts: 3630, Decisions: 4399, Propagations: 131513, Restarts: 18, Learnt: 3623}},
		{7, []Status{Sat, Sat, Sat, Sat}, Stats{Conflicts: 1398, Decisions: 1854, Propagations: 47788, Restarts: 8, Learnt: 1398}},
		{8, []Status{Sat, Unsat, Sat, Sat}, Stats{Conflicts: 7772, Decisions: 9385, Propagations: 277347, Restarts: 41, Learnt: 7772}},
		{9, []Status{Sat, Sat, Sat, Sat}, Stats{Conflicts: 3681, Decisions: 4701, Propagations: 140999, Restarts: 22, Learnt: 3681}},
		{10, []Status{Unsat, Unsat, Unsat, Unsat}, Stats{Conflicts: 2110, Decisions: 2504, Propagations: 68200, Restarts: 13, Learnt: 2104}},
	}
	for _, w := range want {
		var got []Status
		s := randomCNFSession(w.seed, func(_ *Solver, st Status) { got = append(got, st) })
		if !slices.Equal(got, w.status) || s.Stats != w.stats {
			t.Errorf("seed %d: %v %+v, want %v %+v", w.seed, got, s.Stats, w.status, w.stats)
		}
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i, got, w)
		}
	}
}

func BenchmarkPigeonhole87(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		pigeonhole(s, 8, 7)
		if s.Solve() != Unsat {
			b.Fatal("PHP(8,7) must be UNSAT")
		}
	}
}
