package cut

import (
	"math/bits"
	"math/rand"
	"testing"

	"mighash/internal/circuits"
	"mighash/internal/depthopt"
	"mighash/internal/mig"
)

// buildFullAdder returns the Fig. 1 full adder and its sum/carry literals.
func buildFullAdder() (*mig.MIG, mig.Lit, mig.Lit) {
	m := mig.New(3)
	s, c := m.FullAdder(m.Input(0), m.Input(1), m.Input(2))
	m.AddOutput(s)
	m.AddOutput(c)
	return m, s, c
}

func TestTerminalCuts(t *testing.T) {
	m, _, _ := buildFullAdder()
	sets := Enumerate(m, Options{})
	if len(sets[0]) != 1 || sets[0][0].N != 0 {
		t.Errorf("constant node cuts = %v, want the empty cut", sets[0])
	}
	for i := 0; i < 3; i++ {
		id := m.Input(i).ID()
		if len(sets[id]) != 1 || sets[id][0].N != 1 || sets[id][0].L[0] != id {
			t.Errorf("input %d cuts = %v", i, sets[id])
		}
	}
}

func TestFullAdderCuts(t *testing.T) {
	m, s, c := buildFullAdder()
	sets := Enumerate(m, Options{})
	// The carry node 〈abc〉 has exactly the input cut and its trivial cut.
	carry := sets[c.ID()]
	if len(carry) != 2 {
		t.Fatalf("carry has %d cuts: %v", len(carry), carry)
	}
	if carry[0].N != 3 {
		t.Errorf("carry primary cut = %v, want the 3 inputs", carry[0].String())
	}
	if carry[len(carry)-1].N != 1 || carry[len(carry)-1].L[0] != c.ID() {
		t.Error("trivial cut missing or not last")
	}
	// The sum node must have a cut consisting of the three inputs.
	foundInputs := false
	for _, cc := range sets[s.ID()] {
		if cc.N == 3 && cc.L[0] == m.Input(0).ID() && cc.L[1] == m.Input(1).ID() && cc.L[2] == m.Input(2).ID() {
			foundInputs = true
		}
	}
	if !foundInputs {
		t.Errorf("sum node lacks the primary-input cut: %v", sets[s.ID()])
	}
}

// validateCut checks the two cut conditions of Sec. II-C by cone traversal.
func validateCut(m *mig.MIG, root mig.ID, c *Cut) bool {
	inL := map[mig.ID]bool{}
	for _, l := range c.Leaves() {
		inL[l] = true
	}
	used := map[mig.ID]bool{}
	ok := true
	var visit func(id mig.ID)
	seen := map[mig.ID]bool{}
	var rec func(id mig.ID)
	rec = func(id mig.ID) {
		if id == 0 {
			return // paths to the constant are exempt
		}
		if inL[id] {
			used[id] = true
			return
		}
		if !m.IsGate(id) {
			ok = false // reached an input that is not a leaf
			return
		}
		if seen[id] {
			return
		}
		seen[id] = true
		for _, ch := range m.Fanin(id) {
			rec(ch.ID())
		}
	}
	visit = rec
	visit(root)
	if !ok {
		return false
	}
	return len(used) == len(c.Leaves()) // every leaf on some path
}

func TestEnumeratedCutsAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		m := randomMIG(rng, 5, 25)
		sets := Enumerate(m, Options{K: 4, MaxCuts: 50})
		for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
			for i := range sets[id] {
				c := &sets[id][i]
				if int(c.N) > 4 {
					t.Fatalf("cut %v exceeds k", c)
				}
				if !validateCut(m, mig.ID(id), c) {
					t.Fatalf("trial %d: invalid cut %v of node %d", trial, c, id)
				}
			}
		}
	}
}

func TestCutFunctionsComposeCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		m := randomMIG(rng, 5, 20)
		sets := Enumerate(m, Options{K: 4, MaxCuts: 20})
		// Node functions over the PIs, for cross-checking.
		ref := nodeTTs(m)
		for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
			for i := range sets[id] {
				c := &sets[id][i]
				local := m.ConeTT(mig.MakeLit(mig.ID(id), false), c.Leaves())
				// Compose: for every PI assignment, the cut function applied
				// to the leaf values must equal the node value.
				for j := uint(0); j < 32; j++ {
					var idx uint
					for li, leaf := range c.Leaves() {
						if ref[leaf].Eval(j) {
							idx |= 1 << uint(li)
						}
					}
					if local.Eval(idx) != ref[id].Eval(j) {
						t.Fatalf("trial %d node %d cut %v: composition mismatch at %d", trial, id, c, j)
					}
				}
			}
		}
	}
}

// TestCutTTMatchesConeTT checks the incrementally-maintained truth table
// of every enumerated cut against the reference cone re-simulation: the
// carried TT must equal ConeTT(root, leaves).Expand(5) exactly, which is
// what the rewrite hot path consumes instead of re-simulating. Both
// rewriting widths are covered; with K = 4 the low 16 bits must equally
// read back as the 4-variable table.
func TestCutTTMatchesConeTT(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		m := randomMIG(rng, 5, 30)
		for _, k := range []int{4, 5} {
			sets := Enumerate(m, Options{K: k, MaxCuts: 30})
			for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
				for i := range sets[id] {
					c := &sets[id][i]
					want := m.ConeTT(mig.MakeLit(mig.ID(id), false), c.Leaves()).Expand(5)
					if uint64(c.TT) != want.Bits {
						t.Fatalf("trial %d k=%d node %d cut %v: TT %#08x, want %#08x",
							trial, k, id, c, c.TT, want.Bits)
					}
					if int(c.N) <= 4 {
						want4 := m.ConeTT(mig.MakeLit(mig.ID(id), false), c.Leaves()).Expand(4)
						if uint64(uint16(c.TT)) != want4.Bits {
							t.Fatalf("trial %d k=%d node %d cut %v: low TT half %#04x, want %#04x",
								trial, k, id, c, uint16(c.TT), want4.Bits)
						}
					}
				}
			}
		}
	}
}

// TestWorkspaceReuseMatchesFresh re-enumerates different graphs through
// one Workspace and checks the arena-backed sets equal fresh ones.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	w := NewWorkspace()
	for trial := 0; trial < 10; trial++ {
		m := randomMIG(rng, 5, 10+rng.Intn(60))
		got := w.Enumerate(m, Options{K: 4, MaxCuts: 12})
		want := Enumerate(m, Options{K: 4, MaxCuts: 12})
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d sets, want %d", trial, len(got), len(want))
		}
		for id := range want {
			if len(got[id]) != len(want[id]) {
				t.Fatalf("trial %d node %d: %d cuts, want %d", trial, id, len(got[id]), len(want[id]))
			}
			for i := range want[id] {
				if got[id][i] != want[id][i] {
					t.Fatalf("trial %d node %d cut %d: %+v != %+v", trial, id, i, got[id][i], want[id][i])
				}
			}
		}
	}
}

// TestWorkspaceEnumerateSteadyStateAllocs pins the arena property: after
// the first enumeration, re-enumerating the same graph allocates nothing.
func TestWorkspaceEnumerateSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	m := randomMIG(rng, 6, 300)
	w := NewWorkspace()
	w.Enumerate(m, Options{K: 4, MaxCuts: 24}) // warm the arena
	allocs := testing.AllocsPerRun(10, func() {
		w.Enumerate(m, Options{K: 4, MaxCuts: 24})
	})
	if allocs > 0 {
		t.Errorf("steady-state enumeration allocates %.1f objects/run, want 0", allocs)
	}
}

func TestIrredundance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		m := randomMIG(rng, 5, 20)
		sets := Enumerate(m, Options{K: 4, MaxCuts: 50})
		for id := range sets {
			for i := range sets[id] {
				for j := range sets[id] {
					if i == j {
						continue
					}
					if sets[id][i].subsetOf(&sets[id][j]) {
						t.Fatalf("node %d keeps dominated cut %v ⊇ %v",
							id, sets[id][j].String(), sets[id][i].String())
					}
				}
			}
		}
	}
}

func TestMaxCutsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := randomMIG(rng, 6, 60)
	sets := Enumerate(m, Options{K: 4, MaxCuts: 5})
	for id, s := range sets {
		if len(s) > 6 { // 5 + trivial
			t.Errorf("node %d has %d cuts, cap is 5+trivial", id, len(s))
		}
	}
}

func TestWiderK(t *testing.T) {
	m := mig.New(6)
	x := m.Input(0)
	for i := 1; i < 6; i++ {
		x = m.And(x, m.Input(i))
	}
	m.AddOutput(x)
	sets := Enumerate(m, Options{K: 6, MaxCuts: 100})
	// The 6-input AND chain's top node must have the all-inputs cut.
	found := false
	for _, c := range sets[x.ID()] {
		if int(c.N) == 6 {
			found = true
		}
	}
	if !found {
		t.Error("6-feasible cut over all inputs not found")
	}
}

// TestMerge3Saturation checks that both the kernel's two-way merge and
// the reference three-way merge fail past k and are idempotent.
func TestMerge3Saturation(t *testing.T) {
	a := Cut{N: 3, L: [MaxK]mig.ID{1, 2, 3}}
	b := Cut{N: 3, L: [MaxK]mig.ID{4, 5, 6}}
	c := Cut{N: 0}
	if _, ok := merge3(&a, &b, &c, 4); ok {
		t.Error("merge exceeding k must fail")
	}
	if got, ok := merge3(&a, &a, &c, 4); !ok || got.N != 3 {
		t.Errorf("idempotent merge broken: %v %v", got, ok)
	}
	var got Cut
	if merge2(&a, &b, 4, &got) {
		t.Error("two-way merge exceeding k must fail")
	}
	if !merge2(&a, &b, 6, &got) || got.String() != "{1 2 3 4 5 6}" {
		t.Errorf("two-way merge at k = 6: %v", got.String())
	}
	got.L = [MaxK]mig.ID{9, 9, 9, 9, 9, 9}
	if !merge2(&a, &a, 4, &got) || got != (Cut{N: 3, L: [MaxK]mig.ID{1, 2, 3}}) {
		t.Errorf("idempotent two-way merge broken or stale leaf slots kept: %+v", got)
	}
}

func TestSubsetOf(t *testing.T) {
	mk := func(ids ...mig.ID) Cut {
		var c Cut
		for _, id := range ids {
			c.L[c.N] = id
			c.N++
			c.Sig |= sigOf(id)
		}
		return c
	}
	a := mk(1, 3)
	b := mk(1, 2, 3)
	if !a.subsetOf(&b) || b.subsetOf(&a) {
		t.Error("subsetOf broken")
	}
	e := mk()
	if !e.subsetOf(&a) {
		t.Error("empty cut must be subset of everything")
	}
}

// merge3 is the reference three-way union of the plain triple loop that
// mergeSets replaced; it fails when the union exceeds k.
func merge3(a, b, c *Cut, k int) (Cut, bool) {
	if bits.OnesCount64(a.Sig|b.Sig|c.Sig) > k {
		return Cut{}, false
	}
	var out Cut
	i, j, l := uint8(0), uint8(0), uint8(0)
	for i < a.N || j < b.N || l < c.N {
		best := mig.ID(^uint32(0))
		if i < a.N && a.L[i] < best {
			best = a.L[i]
		}
		if j < b.N && b.L[j] < best {
			best = b.L[j]
		}
		if l < c.N && c.L[l] < best {
			best = c.L[l]
		}
		if int(out.N) >= k {
			return Cut{}, false
		}
		out.L[out.N] = best
		out.N++
		if i < a.N && a.L[i] == best {
			i++
		}
		if j < b.N && b.L[j] == best {
			j++
		}
		if l < c.N && c.L[l] == best {
			l++
		}
	}
	out.Sig = a.Sig | b.Sig | c.Sig
	return out, true
}

// addIrredundant is the reference insertion: c is dropped when an
// existing cut dominates it, else the cuts it dominates are removed and
// it is inserted by leaf count under the maxCuts cap.
func addIrredundant(set []Cut, c Cut, maxCuts int) []Cut {
	for i := range set {
		if set[i].subsetOf(&c) {
			return set
		}
	}
	n := 0
	for i := range set {
		if !c.subsetOf(&set[i]) {
			set[n] = set[i]
			n++
		}
	}
	set = set[:n]
	if len(set) < maxCuts {
		pos := len(set)
		for pos > 0 && set[pos-1].N > c.N {
			pos--
		}
		set = append(set, Cut{})
		copy(set[pos+1:], set[pos:])
		set[pos] = c
		return set
	}
	if set[len(set)-1].N > c.N {
		pos := len(set) - 1
		for pos > 0 && set[pos-1].N > c.N {
			pos--
		}
		copy(set[pos+1:], set[pos:len(set)-1])
		set[pos] = c
	}
	return set
}

// refEnumerate is the plain triple-loop enumeration: every child-cut
// triple is merged with merge3, its truth table computed, and the result
// offered to addIrredundant.
func refEnumerate(m *mig.MIG, opts Options) [][]Cut {
	opts = opts.withDefaults()
	withTT := opts.K <= 5
	sets := make([][]Cut, m.NumNodes())
	sets[0] = []Cut{{}}
	for i := 0; i < m.NumPIs(); i++ {
		id := m.Input(i).ID()
		c := Cut{Sig: sigOf(id), N: 1, L: [MaxK]mig.ID{id}}
		if withTT {
			c.TT = ttVar0
		}
		sets[id] = []Cut{c}
	}
	for id := m.NumPIs() + 1; id < m.NumNodes(); id++ {
		f := m.Fanin(mig.ID(id))
		sa, sb, sc := sets[f[0].ID()], sets[f[1].ID()], sets[f[2].ID()]
		var out []Cut
		for ia := range sa {
			for ib := range sb {
				for ic := range sc {
					c, ok := merge3(&sa[ia], &sb[ib], &sc[ic], opts.K)
					if !ok {
						continue
					}
					if withTT {
						c.TT = mergedTT(f, &sa[ia], &sb[ib], &sc[ic], &c)
					}
					out = addIrredundant(out, c, opts.MaxCuts)
				}
			}
		}
		triv := Cut{Sig: sigOf(mig.ID(id)), N: 1, L: [MaxK]mig.ID{mig.ID(id)}}
		if withTT {
			triv.TT = ttVar0
		}
		sets[id] = append(out, triv)
	}
	return sets
}

// TestEnumerateMatchesTripleLoop is the differential test of the merge
// kernel: on random MIGs large enough that signature bits alias (node IDs
// past 64 share bits), Workspace.Enumerate must return exactly the
// reference triple loop's sets — leaves, Sig, TT and order — at every
// cut width and cap the rewriters and the mapper use.
func TestEnumerateMatchesTripleLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	w := NewWorkspace()
	for trial := 0; trial < 40; trial++ {
		m := randomMIG(rng, 4+rng.Intn(5), 80+rng.Intn(200))
		for _, k := range []int{3, 4, 5, 6} {
			for _, maxCuts := range []int{4, 12, 24} {
				opts := Options{K: k, MaxCuts: maxCuts}
				want := refEnumerate(m, opts)
				got := w.Enumerate(m, opts)
				if len(got) != len(want) {
					t.Fatalf("trial %d k=%d cap=%d: %d sets, want %d", trial, k, maxCuts, len(got), len(want))
				}
				for id := range want {
					if len(got[id]) != len(want[id]) {
						t.Fatalf("trial %d k=%d cap=%d node %d: %d cuts, want %d",
							trial, k, maxCuts, id, len(got[id]), len(want[id]))
					}
					for i := range want[id] {
						if got[id][i] != want[id][i] {
							t.Fatalf("trial %d k=%d cap=%d node %d cut %d: %+v, want %+v",
								trial, k, maxCuts, id, i, got[id][i], want[id][i])
						}
					}
				}
			}
		}
	}
}

// randomMIG builds a random MIG over n inputs with g gates.
func randomMIG(rng *rand.Rand, n, g int) *mig.MIG {
	m := mig.New(n)
	sigs := []mig.Lit{mig.Const0}
	for i := 0; i < n; i++ {
		sigs = append(sigs, m.Input(i))
	}
	for i := 0; i < g; i++ {
		pick := func() mig.Lit {
			return sigs[rng.Intn(len(sigs))].NotIf(rng.Intn(2) == 1)
		}
		sigs = append(sigs, m.Maj(pick(), pick(), pick()))
	}
	m.AddOutput(sigs[len(sigs)-1])
	return m
}

// nodeTTs returns the function of every node over the primary inputs.
func nodeTTs(m *mig.MIG) []ttLite {
	out := make([]ttLite, m.NumNodes())
	n := m.NumPIs()
	for i := 0; i < n; i++ {
		out[m.Input(i).ID()] = varTT(n, i)
	}
	for id := n + 1; id < m.NumNodes(); id++ {
		f := m.Fanin(mig.ID(id))
		a := out[f[0].ID()].notIf(f[0].Comp(), n)
		b := out[f[1].ID()].notIf(f[1].Comp(), n)
		c := out[f[2].ID()].notIf(f[2].Comp(), n)
		out[id] = ttLite(uint64(a)&uint64(b) | uint64(a)&uint64(c) | uint64(b)&uint64(c))
	}
	return out
}

type ttLite uint64

func varTT(n, i int) ttLite {
	var v uint64
	for j := uint(0); j < uint(1)<<uint(n); j++ {
		if (j>>uint(i))&1 == 1 {
			v |= 1 << j
		}
	}
	return ttLite(v)
}

func (t ttLite) notIf(c bool, n int) ttLite {
	if !c {
		return t
	}
	return ttLite(^uint64(t) & (1<<(1<<uint(n)) - 1))
}

func (t ttLite) Eval(j uint) bool { return uint64(t)>>j&1 == 1 }

func BenchmarkEnumerate(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	m := randomMIG(rng, 6, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Enumerate(m, Options{K: 4, MaxCuts: 12})
	}
}

// BenchmarkEnumeratePrepared enumerates a depth-prepared suite circuit
// (Max after the depthopt starting-point pass migpipe applies) at the
// settings of the three consumers: K = 4 rewriting, K = 5 rewriting (the
// TF5x pass) and the K = 6 LUT mapper. Deep, reconvergent prepared logic
// fills the cut sets, which is where the merge kernel spends its time.
func BenchmarkEnumeratePrepared(b *testing.B) {
	spec, ok := circuits.ByName("Max")
	if !ok {
		b.Fatal("Max benchmark missing")
	}
	m, _ := depthopt.Optimize(spec.Build(), depthopt.Options{SizeFactor: 8, MaxPasses: 40})
	for _, bc := range []struct {
		name string
		opts Options
	}{
		{"K4cap24", Options{K: 4, MaxCuts: 24}},
		{"K5cap24", Options{K: 5, MaxCuts: 24}},
		{"K6cap8", Options{K: 6, MaxCuts: 8}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			w := NewWorkspace()
			w.Enumerate(m, bc.opts)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Enumerate(m, bc.opts)
			}
		})
	}
}
