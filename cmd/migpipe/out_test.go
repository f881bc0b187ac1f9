package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mighash/internal/circuits"
	"mighash/internal/engine"
	"mighash/internal/exp"
	"mighash/internal/mig"
	"mighash/internal/sim/diff"
)

// TestMain lets the tests below run the command itself: with
// MIGPIPE_MAIN=1 the test binary is migpipe, flags and exit codes
// included.
func TestMain(m *testing.M) {
	if os.Getenv("MIGPIPE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// migpipe runs the command with args and returns its combined output
// and exit error.
func migpipe(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MIGPIPE_MAIN=1")
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestOutWritesOptimizedGraph: -out writes the single job's optimized
// graph in the format its suffix names. BENCH and text re-read as a
// graph of the optimized size that simulates like the result; DOT is
// written non-empty.
func TestOutWritesOptimizedGraph(t *testing.T) {
	spec, _ := circuits.ByName("Max")
	p, err := engine.Preset("BF")
	if err != nil {
		t.Fatal(err)
	}
	in := exp.PrepareStart(spec)
	want, _, err := p.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	if want.Size() == in.Size() {
		t.Fatalf("BF leaves Max at %d gates: the test cannot tell the result from the input", in.Size())
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		file string
		read func(*os.File) (*mig.MIG, error)
	}{
		{"max.bench", func(f *os.File) (*mig.MIG, error) { return mig.ReadBENCH(f) }},
		{"max.mig", func(f *os.File) (*mig.MIG, error) { return mig.ReadText(f) }},
		{"max.dot", nil},
	} {
		path := filepath.Join(dir, tc.file)
		if out, err := migpipe(t, "-script", "BF", "-benchmarks", "Max", "-workers", "1", "-out", path); err != nil {
			t.Fatalf("-out %s: %v\n%s", tc.file, err, out)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if tc.read == nil {
			st, err := f.Stat()
			f.Close()
			if err != nil || st.Size() == 0 {
				t.Fatalf("%s: empty or unreadable (%v)", tc.file, err)
			}
			continue
		}
		got, err := tc.read(f)
		f.Close()
		if err != nil {
			t.Fatalf("re-reading %s: %v", tc.file, err)
		}
		if got.Size() != want.Size() {
			t.Errorf("%s has %d gates, the optimized graph %d", tc.file, got.Size(), want.Size())
		}
		if err := diff.New(diff.Options{}).Check(want, got); err != nil {
			t.Errorf("%s does not simulate like the optimized graph: %v", tc.file, err)
		}
	}
}

// TestOutNeedsOneJob: -out over a batch is a usage error, reported
// before any optimization runs.
func TestOutNeedsOneJob(t *testing.T) {
	path := filepath.Join(t.TempDir(), "two.bench")
	out, err := migpipe(t, "-script", "quick", "-benchmarks", "Adder,Max", "-prepare=false", "-out", path)
	if err == nil {
		t.Fatalf("-out with two jobs succeeded:\n%s", out)
	}
	if !strings.Contains(out, "-out needs exactly one job") {
		t.Errorf("error does not explain the usage: %q", out)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("-out with two jobs wrote %s", path)
	}
	if strings.Contains(out, "circuit") {
		t.Errorf("the batch ran before the usage error:\n%s", out)
	}
}

// TestProfilesWritten: -cpuprofile and -memprofile each write a pprof
// profile of the run, which is gzip-compressed protobuf.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if out, err := migpipe(t, "-script", "resyn", "-benchmarks", "Adder", "-workers", "1",
		"-cpuprofile", cpu, "-memprofile", mem); err != nil {
		t.Fatalf("profiled run: %v\n%s", err, out)
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: %d bytes without the gzip magic, not a pprof profile", filepath.Base(path), len(b))
		}
	}
}
