package cut

import (
	"fmt"
	"math/bits"

	"mighash/internal/mig"
)

// MaxK is the largest supported cut width; 6 covers both the 4-input
// rewriting cuts and the 6-input LUT mapping cuts.
const MaxK = 6

// Cut is a set of at most MaxK leaves, sorted ascending. Sig is a 64-bit
// Bloom-style signature for fast subset tests.
//
// TT is the function of the cut root over the leaves — leaf i is variable
// i — stored expanded to 5 variables (unused upper variables are
// don't-cares), so it equals mig.ConeTT(root, leaves).Expand(5).Bits. It
// is computed incrementally during enumeration from the child cuts' truth
// tables and is only populated when enumerating with K <= 5; wider
// enumerations (LUT mapping) leave it zero. For cuts of at most four
// leaves the low 16 bits are exactly the 4-variable table (expansion
// duplicates the halves), which is what the K = 4 rewriting path reads.
type Cut struct {
	Sig uint64
	TT  uint32
	N   uint8
	L   [MaxK]mig.ID
}

// Leaves returns the leaf IDs of the cut in ascending order. The slice
// aliases the cut's storage.
func (c *Cut) Leaves() []mig.ID { return c.L[:c.N] }

// String renders the cut as {id id ...}.
func (c *Cut) String() string {
	s := "{"
	for i := uint8(0); i < c.N; i++ {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprint(c.L[i])
	}
	return s + "}"
}

func sigOf(id mig.ID) uint64 { return 1 << (uint(id) & 63) }

// proj5[i] is the truth table of variable i over 5 variables, the 32-bit
// analogue of tt.Var(5, i).
var proj5 = [5]uint32{0xAAAAAAAA, 0xCCCCCCCC, 0xF0F0F0F0, 0xFF00FF00, 0xFFFF0000}

// ttVar0 is the truth table of a single-leaf cut: variable 0 expanded to
// 5 variables.
const ttVar0 = 0xAAAAAAAA

// swapTT exchanges variables i < j of a 5-variable truth table; the
// 32-bit counterpart of tt.SwapVars.
func swapTT(bits uint32, i, j int) uint32 {
	pi, pj := proj5[i], proj5[j]
	sh := uint(1)<<uint(j) - uint(1)<<uint(i)
	keep := bits & (pi&pj | ^pi&^pj)
	up := (bits & pi &^ pj) << sh
	down := (bits & pj &^ pi) >> sh
	return keep | up | down
}

// stretchTT re-expresses the truth table of child cut c over the leaf
// positions of the merged cut d (c.L ⊆ d.L, both sorted). Because both
// leaf lists are ascending, variable i of c moves to a position p_i >= i
// with p_0 < p_1 < ..., so — walking from the highest variable down —
// each move is a swap with a position currently holding a don't-care
// variable, which in the expanded-to-5 representation is exact.
func stretchTT(c, d *Cut) uint32 {
	bits := c.TT
	j := int(d.N)
	for i := int(c.N) - 1; i >= 0; i-- {
		for j--; d.L[j] != c.L[i]; j-- {
		}
		if j != i {
			bits = swapTT(bits, i, j)
		}
	}
	return bits
}

// mergedTT computes the truth table of a gate over the leaves of the
// merged cut out: each child cut's function is stretched onto out's leaf
// positions, complemented per the fanin edge, and combined by majority.
func mergedTT(f [3]mig.Lit, a, b, c, out *Cut) uint32 {
	ta := stretchTT(a, out)
	if f[0].Comp() {
		ta = ^ta
	}
	tb := stretchTT(b, out)
	if f[1].Comp() {
		tb = ^tb
	}
	tc := stretchTT(c, out)
	if f[2].Comp() {
		tc = ^tc
	}
	return ta&tb | ta&tc | tb&tc
}

// subsetOf reports whether c ⊆ d.
func (c *Cut) subsetOf(d *Cut) bool {
	if c.N > d.N || c.Sig&^d.Sig != 0 {
		return false
	}
	i, j := uint8(0), uint8(0)
	for i < c.N {
		for j < d.N && d.L[j] < c.L[i] {
			j++
		}
		if j >= d.N || d.L[j] != c.L[i] {
			return false
		}
		i++
		j++
	}
	return true
}

// merge2 writes the union of two sorted cuts to out, failing when it
// exceeds k leaves. On success it sets out's leaves, N and Sig, zeroing
// the leaf slots past N so equal cuts compare equal with ==; TT is left
// as it was. On failure out is unspecified.
func merge2(a, b *Cut, k int, out *Cut) bool {
	i, j, n := 0, 0, 0
	an, bn := int(a.N), int(b.N)
	for i < an && j < bn {
		if n >= k {
			return false
		}
		x, y := a.L[i], b.L[j]
		switch {
		case x < y:
			i++
		case y < x:
			x = y
			j++
		default:
			i++
			j++
		}
		out.L[n] = x
		n++
	}
	if n+an-i+bn-j > k {
		return false
	}
	for ; i < an; i++ {
		out.L[n] = a.L[i]
		n++
	}
	for ; j < bn; j++ {
		out.L[n] = b.L[j]
		n++
	}
	out.N = uint8(n)
	for ; n < MaxK; n++ {
		out.L[n] = 0
	}
	out.Sig = a.Sig | b.Sig
	return true
}

// Options configures the enumeration.
type Options struct {
	K       int // maximum leaves per cut (2..MaxK); default 4
	MaxCuts int // cuts kept per node, excluding the trivial cut; default 24
}

func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 4
	}
	if o.K < 2 || o.K > MaxK {
		panic(fmt.Sprintf("cut: unsupported cut width %d", o.K))
	}
	if o.MaxCuts == 0 {
		o.MaxCuts = 24
	}
	return o
}

// Enumerate computes the cut sets of every node of m. The result is
// indexed by node ID; terminals get their defining cuts and every gate's
// set ends with the trivial cut {g}. With K <= 5 every cut also carries
// its truth table (see Cut.TT).
//
// Enumerate allocates fresh cut sets the caller may retain; the rewrite
// hot path reuses one arena across passes through Workspace.Enumerate.
func Enumerate(m *mig.MIG, opts Options) [][]Cut {
	return new(Workspace).Enumerate(m, opts)
}

// Workspace owns the cut-set arena of repeated enumerations: all cut
// slices of one Enumerate call are carved out of a single backing array
// that is reused by the next call, so steady-state enumeration allocates
// nothing. The sets returned by Workspace.Enumerate alias the arena and
// are invalidated by the next Enumerate on the same Workspace; a
// Workspace must not be used by two goroutines at once.
type Workspace struct {
	sets  [][]Cut
	arena []Cut
}

// NewWorkspace returns an empty enumeration workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Enumerate is the arena-backed version of the package-level Enumerate.
func (w *Workspace) Enumerate(m *mig.MIG, opts Options) [][]Cut {
	opts = opts.withDefaults()
	n := m.NumNodes()
	per := opts.MaxCuts + 1 // every node's set is capped at MaxCuts plus the trivial cut
	if need := n * per; cap(w.arena) < need {
		w.arena = make([]Cut, need)
	}
	if cap(w.sets) < n {
		w.sets = make([][]Cut, n)
	}
	sets := w.sets[:n]
	// slot hands out node i's fixed-capacity arena window; appends beyond
	// per would reallocate out of the arena, which the cap in
	// insert rules out.
	slot := func(i int) []Cut { return w.arena[i*per : i*per : (i+1)*per] }
	withTT := opts.K <= 5
	sets[0] = append(slot(0), Cut{}) // constant node: the empty cut
	for i := 0; i < m.NumPIs(); i++ {
		id := int(m.Input(i).ID())
		c := Cut{Sig: sigOf(mig.ID(id)), N: 1, L: [MaxK]mig.ID{mig.ID(id)}}
		if withTT {
			c.TT = ttVar0
		}
		sets[id] = append(slot(id), c)
	}
	for id := m.NumPIs() + 1; id < n; id++ {
		gid := mig.ID(id)
		f := m.Fanin(gid)
		sets[id] = mergeSets(slot(id), sets[f[0].ID()], sets[f[1].ID()], sets[f[2].ID()], f, gid, opts, withTT)
	}
	return sets
}

// mergeSets computes the saturating union of the three child cut sets with
// irredundancy filtering and capping, then appends the trivial cut. out
// must be empty with capacity for MaxCuts+1 cuts.
//
// The triples are visited in (a, b, c) order, but a∪b is built once per
// pair and the whole c loop is skipped when it already exceeds K. Every
// leaf sets one signature bit and collisions only under-count, so a
// popcount above K proves the merge infeasible before any leaf is walked.
// The truth table is computed only for cuts that survive the dominance
// check. Only merges that would fail are skipped, so the sets equal those
// of the plain triple loop, order included.
func mergeSets(out []Cut, sa, sb, sc []Cut, f [3]mig.Lit, root mig.ID, opts Options, withTT bool) []Cut {
	k := opts.K
	var ab, abc Cut
	for ia := range sa {
		a := &sa[ia]
		for ib := range sb {
			b := &sb[ib]
			if bits.OnesCount64(a.Sig|b.Sig) > k || !merge2(a, b, k, &ab) {
				continue
			}
			for ic := range sc {
				c := &sc[ic]
				if bits.OnesCount64(ab.Sig|c.Sig) > k || !merge2(&ab, c, k, &abc) || dominated(out, &abc) {
					continue
				}
				if withTT {
					abc.TT = mergedTT(f, a, b, c, &abc)
				}
				out = insert(out, &abc, opts.MaxCuts)
			}
		}
	}
	triv := Cut{Sig: sigOf(root), N: 1, L: [MaxK]mig.ID{root}}
	if withTT {
		triv.TT = ttVar0
	}
	out = append(out, triv)
	return out
}

// dominated reports whether some cut of set is contained in c.
func dominated(set []Cut, c *Cut) bool {
	for i := range set {
		if set[i].subsetOf(c) {
			return true
		}
	}
	return false
}

// insert adds a cut that no cut of set dominates: cuts dominated by c are
// removed, and the set is capped at maxCuts, preferring cuts with fewer
// leaves.
func insert(set []Cut, c *Cut, maxCuts int) []Cut {
	n := 0
	for i := range set {
		if !c.subsetOf(&set[i]) {
			set[n] = set[i]
			n++
		}
	}
	set = set[:n]
	if len(set) < maxCuts {
		// Keep the set ordered by leaf count so capping drops wide cuts
		// last-in first.
		pos := len(set)
		for pos > 0 && set[pos-1].N > c.N {
			pos--
		}
		set = append(set, Cut{})
		copy(set[pos+1:], set[pos:])
		set[pos] = *c
		return set
	}
	// Set full: replace the widest cut if c is narrower.
	if set[len(set)-1].N > c.N {
		pos := len(set) - 1
		for pos > 0 && set[pos-1].N > c.N {
			pos--
		}
		copy(set[pos+1:], set[pos:len(set)-1])
		set[pos] = *c
	}
	return set
}
