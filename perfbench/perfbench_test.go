package main

import (
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"mighash/internal/circuits"
	"mighash/internal/engine"
	"mighash/internal/exp"
	"mighash/internal/mig"
	"mighash/internal/server"
	"mighash/internal/sim/diff"
)

// sizes and coneSizes shaped like the prepared suite: a few large
// circuits, many small ones, cones from empty to beyond the caps.
var (
	testSizes     = []int{894, 51754, 30371, 3460, 20696, 10556, 33204, 18513}
	testConeSizes = func() [][]int {
		var out [][]int
		for c := 0; c < 8; c++ {
			var sizes []int
			for o := 0; o < 20+7*c; o++ {
				sizes = append(sizes, (o*o*37+c*911)%15000)
			}
			out = append(out, sizes)
		}
		return out
	}()
)

// The generators are pure functions of the seed: the same seed gives the
// same job orders, cone draws, request sequences and checks; another seed
// gives others.
func TestGeneratorsArePureFunctionsOfTheSeed(t *testing.T) {
	type draw struct {
		order, coldOrder, serve, verify []int
		cones                           []coneRef
		checks                          []check
	}
	gen := func(seed uint64, round int) draw {
		cones := serveCones(testConeSizes)
		checks := verifyChecks(seed, len(verifyPairs))
		return draw{
			order:     jobOrder(seed, round, testSizes, largeGates),
			coldOrder: jobOrder(seed, round, testSizes[:2], int(^uint(0)>>1)),
			serve:     serveOrder(seed, round, len(cones)),
			verify:    verifyOrder(seed, round, len(checks)),
			cones:     cones,
			checks:    checks,
		}
	}
	a, b := gen(7, 1), gen(7, 1)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 7 drew twice differently:\n%+v\n%+v", a, b)
	}
	for _, c := range []draw{gen(8, 1), gen(7, 2)} {
		if reflect.DeepEqual(a.order, c.order) {
			t.Errorf("job order %v drawn twice", a.order)
		}
		if reflect.DeepEqual(a.serve, c.serve) {
			t.Errorf("request sequence drawn twice")
		}
		if reflect.DeepEqual(a.verify, c.verify) {
			t.Errorf("check order drawn twice")
		}
	}
	if reflect.DeepEqual(a.checks, gen(8, 1).checks) {
		t.Errorf("seeds 7 and 8 mutate the same inputs")
	}
	// Two jobs can only swap; some seed near 7 must swap them.
	swapped := false
	for s := uint64(8); s < 16 && !swapped; s++ {
		swapped = !reflect.DeepEqual(a.coldOrder, gen(s, 1).coldOrder)
	}
	if !swapped {
		t.Errorf("no seed in 8..15 reorders the cold jobs")
	}
}

// The seed only orders a fixed multiset of work, so gates, depth and
// verdicts cannot depend on it.
func TestSeedsDrawTheSameMultiset(t *testing.T) {
	if n := len(serveCones(testConeSizes)); n < 100 {
		t.Fatalf("a serve round has %d requests, want at least 100 for a p90", n)
	}
	for _, seed := range []uint64{1, 2} {
		order := jobOrder(seed, 0, testSizes, largeGates)
		if !isPerm(order) {
			t.Errorf("seed %d: job order %v is not a permutation", seed, order)
		}
		if want := []int{1, 6, 2}; !reflect.DeepEqual(order[:3], want) {
			t.Errorf("seed %d: order %v does not start with the large jobs %v, largest first", seed, order, want)
		}
		if !isPerm(serveOrder(seed, 0, 50)) || !isPerm(verifyOrder(seed, 0, 50)) {
			t.Errorf("seed %d: a request or check order is not a permutation", seed)
		}
	}
}

func isPerm(p []int) bool {
	seen := make([]bool, len(p))
	for _, i := range p {
		if i < 0 || i >= len(p) || seen[i] {
			return false
		}
		seen[i] = true
	}
	return true
}

func preparedAdder(t *testing.T) *mig.MIG {
	t.Helper()
	spec, ok := circuits.ByName("Adder")
	if !ok {
		t.Fatal("no Adder circuit")
	}
	return exp.PrepareStart(spec)
}

// A mutant fed in place of an optimized result fails the suite check.
func TestSuiteCheckRejectsMutant(t *testing.T) {
	m := preparedAdder(t)
	jobs := []prepared{{"Adder", m}}
	if err := checkSuiteRound(jobs, []engine.Result{{Name: "Adder", M: m.Clone()}}); err != nil {
		t.Fatalf("an unchanged graph failed the check: %v", err)
	}
	err := checkSuiteRound(jobs, []engine.Result{{Name: "Adder", M: diff.Mutant(m, 3)}})
	if err == nil || !strings.Contains(err.Error(), "not equivalent") {
		t.Fatalf("a mutant passed the check (err %v)", err)
	}
}

// A mutant returned in place of the optimized cone fails the serve check.
func TestServeCheckRejectsMutant(t *testing.T) {
	cone := engine.ExtractCone(preparedAdder(t), 40)
	reply := func(m *mig.MIG) serveOut {
		var netlist strings.Builder
		if err := m.WriteBENCH(&netlist); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(server.OptimizeResponse{Netlist: netlist.String()})
		if err != nil {
			t.Fatal(err)
		}
		out, err := decodeReply(serveReply{status: http.StatusOK, body: body})
		return serveOut{out, err}
	}
	s := &serveRunner{reqs: []serveReq{{name: "Adder.out40", cone: cone}}}
	s.last = []serveOut{reply(cone)}
	if err := s.check(); err != nil {
		t.Fatalf("an unchanged cone failed the check: %v", err)
	}
	s.last = []serveOut{reply(diff.Mutant(cone, 5))}
	if err := s.check(); err == nil {
		t.Fatal("a mutant passed the check")
	}
}

// A mutant that a verify round called equivalent is a wrong verdict, and
// so is a refuted equivalent pair; a budget timeout is not.
func TestVerifyCheckRejectsWrongVerdicts(t *testing.T) {
	s := &verifyRunner{checks: []pairCheck{{name: "pair"}, {name: "pair.mutant", mutant: true}}}
	for _, tc := range []struct {
		last []verdict
		ok   bool
	}{
		{[]verdict{{decided: true, eq: true}, {decided: true}}, true},
		{[]verdict{{}, {decided: true}}, true},
		{[]verdict{{decided: true, eq: true}, {decided: true, eq: true}}, false},
		{[]verdict{{decided: true, eq: true}, {}}, false},
		{[]verdict{{decided: true}, {decided: true}}, false},
	} {
		s.last = tc.last
		if err := s.check(); (err == nil) != tc.ok {
			t.Errorf("verdicts %+v: check gave %v, want ok=%v", tc.last, err, tc.ok)
		}
	}
}

// validName is the character set metric names are restricted to.
var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// The metric names the benchmark prints are those BENCHMARK.json lists,
// with the same units, and use only [A-Za-z0-9_.-].
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(list []struct{ name, unit string }) []string {
		var out []string
		for _, m := range list {
			if !validName.MatchString(m.name) {
				t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.name)
			}
			out = append(out, m.name+" "+m.unit)
		}
		return out
	}
	specNames := func(list []struct{ Name, Unit string }) []string {
		var out []string
		for _, m := range list {
			out = append(out, m.Name+" "+m.Unit)
		}
		return out
	}
	if got, want := names(endToEnd), specNames(spec.EndToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end-to-end metrics\n got %v\nwant %v", got, want)
	}
	if got, want := names(perLayer), specNames(spec.PerLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per-layer metrics\n got %v\nwant %v", got, want)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(wl, have) {
		t.Errorf("workloads: BENCHMARK.json has %v, the benchmark runs %v", wl, have)
	}
}
