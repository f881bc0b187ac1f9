package db

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mighash/internal/tt"
)

// TestSnapshotRoundTrip: WriteSnapshot/ReadSnapshot through memory
// restores every learned class with its structure, alternatives and
// lookup transform intact, and every negative class as negative, so the
// warm store answers each lookup exactly as the original does without
// running a ladder.
func TestSnapshotRoundTrip(t *testing.T) {
	s := learnTwo(t)
	var buf bytes.Buffer
	wrote, err := WriteSnapshot(&buf, nil, s)
	if err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	warm := NewOnDemand(OnDemandOptions{})
	n, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), nil, nil, warm)
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if n != wrote || warm.Len() != s.Len() || warm.NegativeLen() != s.NegativeLen() {
		t.Fatalf("restored %d of %d records into %d/%d classes, want %d/%d",
			n, wrote, warm.Len(), warm.NegativeLen(), s.Len(), s.NegativeLen())
	}
	for _, f := range []tt.TT{and5(), and5().Not(), majority5(), tt.New(5, 0x9D2B64E817A3C55F)} {
		we, wt, wok := s.Lookup(context.Background(), f)
		e, tr, ok := warm.Lookup(context.Background(), f)
		if ok != wok {
			t.Fatalf("%v: restored lookup ok=%v, original ok=%v", f, ok, wok)
		}
		if !ok {
			continue
		}
		if tr != wt || e.Rep != we.Rep || e.Out != we.Out || e.Depth != we.Depth ||
			!reflect.DeepEqual(e.Gates, we.Gates) || e.NumCandidates() != we.NumCandidates() {
			t.Fatalf("%v: restored entry (rep %v, %d gates, depth %d, %d candidates) != original (rep %v, %d gates, depth %d, %d candidates)",
				f, e.Rep, len(e.Gates), e.Depth, e.NumCandidates(), we.Rep, len(we.Gates), we.Depth, we.NumCandidates())
		}
		if got := tr.Apply(e.Rep); got != f {
			t.Fatalf("restored entry instantiates %v, want %v", got, f)
		}
	}
	if warm.Synths() != 0 {
		t.Fatalf("warm store ran %d ladders, want 0", warm.Synths())
	}
}

// TestSnapshotDeterministic: two snapshots of the same store are
// byte-identical (records are sorted by representative).
func TestSnapshotDeterministic(t *testing.T) {
	s := learnTwo(t)
	var a, b bytes.Buffer
	if _, err := WriteSnapshot(&a, nil, s); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSnapshot(&b, nil, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two snapshots of one store differ (%d vs %d bytes)", a.Len(), b.Len())
	}
}

// TestRestoreRejectsCorruption: version skew, bad magic, truncation, a
// flipped byte, and garbage all error out and leave the store cold.
func TestRestoreRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, nil, learnTwo(t)); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("XXX\x01"), good[4:]...),
		"version skew": append([]byte(snapshotMagic+"\x63"),
			good[4:]...),
		"truncated header": good[:2],
		"truncated body":   good[:len(good)/2],
		"missing checksum": good[:len(good)-4],
		"garbage":          []byte("not a snapshot at all, sorry"),
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x40
	cases["flipped byte"] = flipped

	for name, data := range cases {
		warm := NewOnDemand(OnDemandOptions{})
		n, err := ReadSnapshot(bytes.NewReader(data), nil, nil, warm)
		if err == nil {
			t.Errorf("%s: ReadSnapshot accepted corrupt input (%d records)", name, n)
			continue
		}
		if !errors.Is(err, ErrSnapshot) {
			t.Errorf("%s: error %v does not wrap ErrSnapshot", name, err)
		}
		if warm.Len() != 0 || warm.NegativeLen() != 0 {
			t.Errorf("%s: corrupt restore left %d/%d classes in the store", name, warm.Len(), warm.NegativeLen())
		}
	}
}

// TestSaveLoadFile: SaveSnapshotFile is atomic (no temp litter) and
// LoadSnapshotFile round-trips; a missing file reports fs.ErrNotExist
// and a corrupt one ErrSnapshot.
func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "npn.cache")

	if _, err := LoadSnapshotFile(path, nil, nil, NewOnDemand(OnDemandOptions{})); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("LoadSnapshotFile on a missing file: err = %v, want fs.ErrNotExist", err)
	}
	s := learnTwo(t)
	wrote, err := SaveSnapshotFile(path, nil, s)
	if err != nil {
		t.Fatalf("SaveSnapshotFile: %v", err)
	}
	glob, _ := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if len(glob) != 0 {
		t.Fatalf("SaveSnapshotFile left temp files behind: %v", glob)
	}
	n, err := LoadSnapshotFile(path, nil, nil, NewOnDemand(OnDemandOptions{}))
	if err != nil {
		t.Fatalf("LoadSnapshotFile: %v", err)
	}
	if n != wrote {
		t.Fatalf("LoadSnapshotFile restored %d records, want %d", n, wrote)
	}

	// Corrupting the file on disk degrades to an error, not a panic, and
	// a subsequent save replaces it atomically.
	if err := os.WriteFile(path, []byte("scribbled over"), 0o644); err != nil {
		t.Fatal(err)
	}
	cold := NewOnDemand(OnDemandOptions{})
	if _, err := LoadSnapshotFile(path, nil, nil, cold); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("LoadSnapshotFile on corrupt file: err = %v, want ErrSnapshot", err)
	}
	if _, err := SaveSnapshotFile(path, nil, s); err != nil {
		t.Fatalf("SaveSnapshotFile over corrupt file: %v", err)
	}
	if _, err := LoadSnapshotFile(path, nil, nil, cold); err != nil {
		t.Fatalf("LoadSnapshotFile after re-save: %v", err)
	}
}

// TestRestoreRespectsLimit: restoring a snapshot into a bounded store
// stays within the bound.
func TestRestoreRespectsLimit(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, nil, learnTwo(t)); err != nil {
		t.Fatal(err)
	}
	warm := NewOnDemand(OnDemandOptions{Limit: 1})
	if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), nil, nil, warm); err != nil {
		t.Fatal(err)
	}
	if got := warm.Len(); got != 1 {
		t.Fatalf("bounded restore holds %d classes, bound 1", got)
	}
	if warm.Evictions() != 1 {
		t.Fatalf("bounded restore evicted %d classes, want 1", warm.Evictions())
	}
}

// TestSnapshotBoundedConcurrent: snapshotting while a bounded store is
// being filled and evicted must neither race nor produce an invalid
// snapshot.
func TestSnapshotBoundedConcurrent(t *testing.T) {
	s := NewOnDemand(OnDemandOptions{Limit: 64})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for key := uint32(1); key <= 50000; key++ {
			s.add(fakeEntry(key))
		}
	}()
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if _, err := WriteSnapshot(&buf, nil, s); err != nil {
			t.Fatalf("WriteSnapshot during writes: %v", err)
		}
		// fakeEntry structures compute nothing, so validate the stream
		// without a store to install into.
		if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), nil, nil, nil); err != nil {
			t.Fatalf("ReadSnapshot of concurrent snapshot: %v", err)
		}
	}
	<-done
	if s.Len() != 64 {
		t.Fatalf("bounded store holds %d classes, want 64", s.Len())
	}
}

// TestSaveFilePermissions: an existing snapshot keeps its permission
// bits across re-saves, and a fresh snapshot is world-readable instead
// of inheriting CreateTemp's private 0600.
func TestSaveFilePermissions(t *testing.T) {
	s := learnTwo(t)
	dir := t.TempDir()

	fresh := filepath.Join(dir, "fresh.cache")
	if _, err := SaveSnapshotFile(fresh, nil, s); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(fresh); fi.Mode().Perm() != 0o644 {
		t.Errorf("fresh snapshot mode = %v, want 0644", fi.Mode().Perm())
	}

	kept := filepath.Join(dir, "kept.cache")
	if err := os.WriteFile(kept, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(kept, 0o664); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveSnapshotFile(kept, nil, s); err != nil {
		t.Fatal(err)
	}
	if fi, _ := os.Stat(kept); fi.Mode().Perm() != 0o664 {
		t.Errorf("re-saved snapshot mode = %v, want preserved 0664", fi.Mode().Perm())
	}
}
