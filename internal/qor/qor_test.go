package qor

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mighash/internal/engine"
)

func rec(run, circuit, script string, gates, depth int, runtime time.Duration, at time.Time) Record {
	return Record{
		Schema: SchemaVersion, Run: run, Circuit: circuit, Script: script,
		Gates: gates, Depth: depth, Runtime: runtime,
		Provenance: Provenance{Time: at, OS: "linux", Arch: "amd64", GOMAXPROCS: 4},
	}
}

func TestCollectProvenance(t *testing.T) {
	p := CollectProvenance()
	if p.OS == "" || p.Arch == "" {
		t.Errorf("provenance missing os/arch: %+v", p)
	}
	if p.GOMAXPROCS < 1 {
		t.Errorf("provenance GOMAXPROCS = %d, want >= 1", p.GOMAXPROCS)
	}
	if p.Time.IsZero() {
		t.Error("provenance time is zero")
	}
	if d := p.Describe(); !strings.Contains(d, "gomaxprocs=") {
		t.Errorf("Describe() = %q, want a gomaxprocs field", d)
	}
}

func TestFromResult(t *testing.T) {
	prov := CollectProvenance()
	res := engine.Result{
		Name: "Adder",
		Stats: engine.PipelineStats{
			Script: "resyn", SizeAfter: 100, DepthAfter: 12, Elapsed: 3 * time.Second,
			Iterations: 2,
			Passes: []engine.PassStats{
				{Name: "TF", Elapsed: time.Second},
				{Name: "BF", Elapsed: time.Second},
				{Name: "TF", Elapsed: time.Second},
			},
		},
	}
	r, ok := FromResult("run1", "resyn", res, prov)
	if !ok {
		t.Fatal("FromResult rejected a clean result")
	}
	if r.Gates != 100 || r.Depth != 12 || r.Runtime != 3*time.Second {
		t.Errorf("record metrics = %d/%d/%v", r.Gates, r.Depth, r.Runtime)
	}
	// Pass times are summed per name across iterations.
	if len(r.Passes) != 2 || r.Passes[0].Name != "TF" || r.Passes[0].Elapsed != 2*time.Second {
		t.Errorf("pass breakdown = %+v, want TF summed to 2s", r.Passes)
	}
	if _, ok := FromResult("run1", "resyn", engine.Result{Name: "x", Err: errors.New("boom")}, prov); ok {
		t.Error("FromResult accepted a failed result")
	}
}

func TestAppendReadRoundTrip(t *testing.T) {
	now := time.Now().UTC().Truncate(time.Second)
	recs := []Record{
		rec("r1", "Adder", "resyn", 100, 10, time.Second, now),
		rec("r1", "Max", "resyn", 200, 20, 2*time.Second, now),
	}
	var buf bytes.Buffer
	if err := Append(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, stats, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 0 || stats.Records != 2 || len(got) != 2 {
		t.Fatalf("read stats = %+v, records = %d", stats, len(got))
	}
	if got[0].Circuit != "Adder" || got[1].Gates != 200 {
		t.Errorf("round trip mangled records: %+v", got)
	}
}

func TestReadSkipsMalformedAndUnknownSchema(t *testing.T) {
	now := time.Now().UTC()
	var buf bytes.Buffer
	if err := Append(&buf, []Record{rec("r1", "Adder", "resyn", 100, 10, time.Second, now)}); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("this is not json\n")
	buf.WriteString(`{"schema_version": 99, "run": "r9", "circuit": "Future", "script": "resyn"}` + "\n")
	// A record written before the cut-cache was removed carries counters
	// the schema no longer has; it is still a valid record.
	buf.WriteString(`{"schema_version": 1, "run": "r0", "circuit": "Max", "script": "resyn", "gates": 2865, "depth": 192, ` +
		`"runtime_ns": 1000, "iterations": 3, "cache_hits": 41000, "cache_misses": 900}` + "\n")
	buf.WriteString(`{"schema_version": 1, "run": "torn", "circ`) // torn tail, no newline
	got, stats, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Circuit != "Adder" || got[1].Circuit != "Max" {
		t.Fatalf("survivors = %+v, want Adder and Max", got)
	}
	if got[1].Gates != 2865 || got[1].Depth != 192 || got[1].Iterations != 3 {
		t.Errorf("legacy record read as %+v", got[1])
	}
	if stats.Skipped != 3 {
		t.Errorf("skipped = %d, want 3 (malformed, future schema, torn tail)", stats.Skipped)
	}
}

func TestAppendFileAndMissingFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", HistoryFile)
	if got, _, err := ReadFile(path); err != nil || got != nil {
		t.Fatalf("missing file: recs=%v err=%v, want empty+nil", got, err)
	}
	now := time.Now().UTC()
	if err := AppendFile(path, []Record{rec("r1", "Adder", "resyn", 100, 10, time.Second, now)}); err != nil {
		t.Fatal(err)
	}
	if err := AppendFile(path, []Record{rec("r2", "Adder", "resyn", 99, 10, time.Second, now.Add(time.Minute))}); err != nil {
		t.Fatal(err)
	}
	got, stats, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || stats.Records != 2 {
		t.Fatalf("appended store holds %d records, want 2", len(got))
	}
	// os.Stat to be sure append did not truncate.
	fi, err := os.Stat(path)
	if err != nil || fi.Size() == 0 {
		t.Fatalf("store file stat: %v size %d", err, fi.Size())
	}
}

func TestMergeDedupesAndOrders(t *testing.T) {
	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	t1 := t0.Add(time.Hour)
	a := []Record{rec("r2", "Adder", "resyn", 90, 9, time.Second, t1)}
	b := []Record{
		rec("r1", "Adder", "resyn", 100, 10, time.Second, t0),
		rec("r2", "Adder", "resyn", 999, 99, time.Second, t1), // duplicate key, must lose
	}
	got := Merge(a, b)
	if len(got) != 2 {
		t.Fatalf("merged %d records, want 2", len(got))
	}
	if got[0].Run != "r1" || got[1].Run != "r2" {
		t.Errorf("merge order = %s, %s; want chronological r1, r2", got[0].Run, got[1].Run)
	}
	if got[1].Gates != 90 {
		t.Errorf("dedupe kept the wrong record: gates = %d, want 90 (first wins)", got[1].Gates)
	}
}

func TestGroupRuns(t *testing.T) {
	t0 := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	recs := []Record{
		rec("r2", "Adder", "resyn", 90, 9, time.Second, t0.Add(time.Hour)),
		rec("r1", "Adder", "resyn", 100, 10, time.Second, t0),
		rec("r1", "Max", "resyn", 200, 20, time.Second, t0),
	}
	runs := GroupRuns(recs)
	if len(runs) != 2 {
		t.Fatalf("grouped %d runs, want 2", len(runs))
	}
	if runs[0].ID != "r1" || len(runs[0].Records) != 2 || runs[1].ID != "r2" {
		t.Errorf("runs = %+v", runs)
	}
	if runs[0].Script != "resyn" {
		t.Errorf("uniform run script = %q, want resyn", runs[0].Script)
	}
	if !strings.Contains(runs[0].Label(), "resyn") {
		t.Errorf("Label() = %q, want the script in it", runs[0].Label())
	}
}

func TestNewRunID(t *testing.T) {
	p := Provenance{Time: time.Date(2026, 8, 7, 12, 0, 0, 250e6, time.UTC), GitSHA: "abcdef0123456789"}
	id := NewRunID(p)
	if !strings.HasPrefix(id, "20260807T120000.250Z-abcdef01") {
		t.Errorf("NewRunID = %q", id)
	}
	// Two runs in the same second must not share an ID (shared IDs are
	// deduped as one run, silently dropping the later run's records).
	later := p
	later.Time = p.Time.Add(time.Millisecond)
	if id2 := NewRunID(later); id2 == id {
		t.Errorf("same-second runs share ID %q", id)
	}
	if id2 := NewRunID(Provenance{Time: p.Time}); !strings.HasSuffix(id2, "-local") {
		t.Errorf("NewRunID without VCS = %q, want -local suffix", id2)
	}
}
