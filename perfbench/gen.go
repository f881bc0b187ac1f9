package main

import (
	"math/rand/v2"
	"sort"
)

// The generators below are the only place the seed enters the benchmark.
// Each is a pure function of its arguments: the same seed yields the same
// job orders, request sequences and check lists, so a run can be repeated
// exactly, and two seeds differ only in how a fixed multiset of work is
// ordered. Keeping the multiset fixed is what keeps gates, depth and the
// verify verdicts identical across seeds while the order still varies.
// Every round of a run draws its own order from the seed, so one run
// already averages over several orders.

// rng returns the generator stream of one workload, seed and round;
// stream separates the workloads so their draws do not mirror each other.
func rng(seed uint64, stream uint64, round int) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream<<32|uint64(round)))
}

// perm returns a seed-drawn permutation of 0..n-1 for one round.
func perm(seed uint64, stream uint64, round, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	rng(seed, stream, round).Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// largeGates splits the suite into large and small circuits for the job
// order of suite-warm.
const largeGates = 25000

// jobOrder returns the order in which suite circuits are submitted to
// RunBatch in one round, as indices into sizes (prepared gate counts).
// Circuits of at least large gates go first, largest first, as a
// size-aware submitter would do; the seed shuffles the others. Which
// large circuits overlap on the two workers sets both the makespan and
// the peak memory, so leaving their order to the draw would make both
// swing with the seed.
func jobOrder(seed uint64, round int, sizes []int, large int) []int {
	var big, small []int
	for i, s := range sizes {
		if s >= large {
			big = append(big, i)
		} else {
			small = append(small, i)
		}
	}
	sort.SliceStable(big, func(i, j int) bool { return sizes[big[i]] > sizes[big[j]] })
	rng(seed, 1, round).Shuffle(len(small), func(i, j int) { small[i], small[j] = small[j], small[i] })
	return append(big, small...)
}

// coneRef names one output cone of one suite circuit.
type coneRef struct {
	Circuit int // index into circuits.All()
	Output  int
}

// serveMaxGates bounds the cones the serve workload sends: the makespan
// of two closed-loop clients swings by up to the largest request, so
// requests are kept well below the length of a round.
const serveMaxGates = 12000

// servePerCircuit is how many cones each circuit contributes to a serve
// round. With eight circuits a round has about 120 requests, enough for
// a p90 with more than 10 samples beyond it.
const servePerCircuit = 16

// serveCones picks the fixed multiset of cones the serve workload sends,
// from the output cone sizes of each prepared circuit: per circuit,
// servePerCircuit cones evenly spaced over its outputs whose cones have
// 1 to serveMaxGates gates (all of them when there are fewer).
func serveCones(coneSizes [][]int) []coneRef {
	var out []coneRef
	for c, sizes := range coneSizes {
		var cand []int
		for o, s := range sizes {
			if s >= 1 && s <= serveMaxGates {
				cand = append(cand, o)
			}
		}
		n := min(len(cand), servePerCircuit)
		for k := 0; k < n; k++ {
			out = append(out, coneRef{c, cand[k*len(cand)/n]})
		}
	}
	return out
}

// serveOrder returns the order in which the serve clients send the n
// cones in one round: a seed-drawn permutation.
func serveOrder(seed uint64, round, n int) []int { return perm(seed, 2, round, n) }

// verifyPair names one output whose prepared and resyn-optimized cones
// the verify workload compares.
type verifyPair struct {
	Circuit string
	Output  int
}

// verifyPairs is the fixed set of verify pairs. The first six decide at
// the 1 s budget in at most a fifth of it; the other twelve stay
// undecided after three times it (2-vCPU x86-64 VM, go1.24). Keeping
// every pair far from the budget keeps decided_share independent of the
// machine's speed, and with most checks ending at the budget the median
// check latency does not sit on the short, noisy ones.
var verifyPairs = []verifyPair{
	{"Adder", 43}, {"Divisor", 62}, {"Log2", 27}, {"Multiplier", 5}, {"Square", 7}, {"Square-root", 57},
	{"Log2", 25}, {"Max", 16}, {"Max", 43}, {"Max", 86}, {"Multiplier", 13}, {"Multiplier", 20},
	{"Multiplier", 26}, {"Square", 15}, {"Square", 22}, {"Square", 28}, {"Square-root", 50}, {"Square-root", 53},
}

// verifyMutants is how many checks pit a pair's prepared cone against a
// mutant of its optimized cone, whose correct verdict is "inequivalent".
const verifyMutants = 4

// check is one equivalence check of the verify workload: pair index into
// verifyPairs, and whether the optimized side is a mutant. MutantK selects
// the XOR-ed input.
type check struct {
	Pair    int
	Mutant  bool
	MutantK int
}

// verifyChecks returns the checks over n pairs: every pair once as is,
// plus verifyMutants seed-drawn pairs against a mutant with a seed-drawn
// mutated input.
func verifyChecks(seed uint64, n int) []check {
	var out []check
	for i := 0; i < n; i++ {
		out = append(out, check{Pair: i})
	}
	r := rng(seed, 3, 0)
	for _, i := range r.Perm(n)[:min(verifyMutants, n)] {
		out = append(out, check{Pair: i, Mutant: true, MutantK: r.IntN(1 << 16)})
	}
	return out
}

// verifyOrder returns the order in which the n checks run in one round:
// a seed-drawn permutation.
func verifyOrder(seed uint64, round, n int) []int { return perm(seed, 4, round, n) }
