package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"mighash/internal/engine"
	"mighash/internal/mig"
	"mighash/internal/server"
)

// TestRunRemoteVerifyModes: every -verify value migpipe accepts locally
// is also accepted by a real server, so a flag that works in a local run
// never turns into a 400 under -url.
func TestRunRemoteVerifyModes(t *testing.T) {
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	m, err := mig.ReadBENCH(strings.NewReader("INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(s)\ns = XOR(a, b, c)\n"))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []engine.Job{{Name: "xor3", M: m}}
	accepted := 0
	for _, mode := range []string{"", "sat", "sim", "sim+sat", "sat+sim", "SAT", "all"} {
		if _, _, err := verifyModes(mode); err != nil {
			continue
		}
		accepted++
		results, _, err := runRemote(context.Background(), ts.URL, "resyn", 0, mode, 0, 0, jobs)
		if err != nil {
			t.Errorf("-verify %q: %v", mode, err)
			continue
		}
		if len(results) != 1 || results[0].Err != nil {
			t.Errorf("-verify %q: results %+v, want one clean job", mode, results)
		}
	}
	if accepted != 4 {
		t.Errorf("verifyModes accepts %d of the probed modes, want 4 (\"\", sat, sim, sim+sat)", accepted)
	}
}
