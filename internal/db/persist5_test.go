package db

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"mighash/internal/npn"
	"mighash/internal/tt"
)

// learnTwo returns a store that has learned two classes and
// negative-cached one.
func learnTwo(t testing.TB) *OnDemand {
	t.Helper()
	s := NewOnDemand(OnDemandOptions{})
	for _, f := range []tt.TT{and5(), majority5()} {
		if _, _, ok := s.Lookup(context.Background(), f); !ok {
			t.Fatalf("class of %v blew the default budget", f)
		}
	}
	hard := NewOnDemand(OnDemandOptions{MaxConflicts: 1})
	// Learn the negative marker through a separate 1-conflict store so
	// the main store's entries stay real, then transplant the key.
	f := tt.New(5, 0x9D2B64E817A3C55F)
	if _, _, ok := hard.Lookup(context.Background(), f); ok {
		t.Fatal("1-conflict budget unexpectedly succeeded")
	}
	rep, _ := npn.Canonize5(f)
	s.addNegative(uint32(rep.Bits))
	return s
}

// TestSnapshotRoundTripsStore: learned and negative 5-input classes
// survive SaveSnapshotFile/LoadSnapshotFile, and a warm store
// re-synthesizes nothing.
func TestSnapshotRoundTripsStore(t *testing.T) {
	s := learnTwo(t)
	path := filepath.Join(t.TempDir(), "npn.cache")
	wrote, err := SaveSnapshotFile(path, nil, s)
	if err != nil {
		t.Fatal(err)
	}
	if want := s.Len() + s.NegativeLen(); wrote != want {
		t.Fatalf("wrote %d records, want %d", wrote, want)
	}

	s2 := NewOnDemand(OnDemandOptions{})
	got, err := LoadSnapshotFile(path, nil, nil, s2)
	if err != nil {
		t.Fatal(err)
	}
	if got != wrote {
		t.Fatalf("restored %d records, want %d", got, wrote)
	}
	if s2.Len() != s.Len() || s2.NegativeLen() != s.NegativeLen() {
		t.Fatalf("store restored %d/%d classes, want %d/%d",
			s2.Len(), s2.NegativeLen(), s.Len(), s.NegativeLen())
	}
	// Warm lookups must hit without synthesizing, for positive and
	// negative classes alike.
	for _, f := range []tt.TT{and5().Not(), majority5(), tt.New(5, 0x9D2B64E817A3C55F)} {
		e, tr, ok := s2.Lookup(context.Background(), f)
		if ok {
			if got := tr.Apply(e.Rep); got != f {
				t.Fatalf("restored entry instantiates %v, want %v", got, f)
			}
		}
	}
	if s2.Synths() != 0 {
		t.Fatalf("warm store ran %d ladders, want 0", s2.Synths())
	}
	// And the snapshot is deterministic.
	var a, b bytes.Buffer
	if _, err := WriteSnapshot(&a, nil, s); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteSnapshot(&b, nil, s2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshot of a restored state differs from the original")
	}
}

// TestRestoreSkipsStoreRecordsWithoutStore: a snapshot read without a
// store validates its 5-input records and installs nothing.
func TestRestoreSkipsStoreRecordsWithoutStore(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, nil, learnTwo(t)); err != nil {
		t.Fatal(err)
	}
	n, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("store-less restore installed %d records", n)
	}
}

// TestRestoreRejectsTamperedClass5: flipping a bit inside a learned
// class's structure must fail the whole restore (simulation check),
// leaving the store cold.
func TestRestoreRejectsTamperedClass5(t *testing.T) {
	s := learnTwo(t)
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, nil, s); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one payload bit past the header and re-seal the checksum so
	// only the semantic verification can catch it.
	raw[len(raw)/2] ^= 0x04
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[:len(raw)-4]))
	s2 := NewOnDemand(OnDemandOptions{})
	if _, err := ReadSnapshot(bytes.NewReader(raw), nil, nil, s2); err == nil {
		t.Fatal("tampered snapshot restored cleanly")
	} else if !errors.Is(err, ErrSnapshot) {
		t.Fatalf("error %v does not wrap ErrSnapshot", err)
	}
	if s2.Len() != 0 || s2.NegativeLen() != 0 {
		t.Fatalf("tampered restore left %d/%d classes installed", s2.Len(), s2.NegativeLen())
	}
}

// legacy4Stream hand-builds a snapshot of the given version whose
// records are all kind 1 — the memoized 4-input lookups the former
// cut-cache wrote — one per key, each naming its class through d.
func legacy4Stream(t testing.TB, version byte, keys []uint64) []byte {
	t.Helper()
	d := load(t)
	var payload bytes.Buffer
	payload.WriteString(snapshotMagic)
	payload.WriteByte(version)
	var tmp [binary.MaxVarintLen64]byte
	wu := func(v uint64) { payload.Write(tmp[:binary.PutUvarint(tmp[:], v)]) }
	wu(uint64(len(keys)))
	for _, k := range keys {
		if version >= 2 {
			payload.WriteByte(recLegacy4)
		}
		wu(k)
		e, tr, ok := d.Lookup(tt.New(4, k&0xFFFF))
		if !ok {
			t.Fatalf("class of %04x missing", k)
		}
		flags := byte(1) | (tr.Flip&0x0F)<<2
		if tr.NegOut {
			flags |= 1 << 1
		}
		var perm byte
		for j := 0; j < 4; j++ {
			perm |= byte(tr.Perm[j]&3) << (2 * uint(j))
		}
		payload.WriteByte(flags)
		payload.WriteByte(perm)
		wu(e.Rep.Bits)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.ChecksumIEEE(payload.Bytes()))
	payload.Write(sum[:])
	return payload.Bytes()
}

// TestRestoreReadsVersion1: pre-upgrade snapshots (no kind tags, 4-input
// records only) still load; their records are discarded, so nothing is
// installed.
func TestRestoreReadsVersion1(t *testing.T) {
	keys := []uint64{0x0000, 0x6996, 0x8000, 0xE8E8, 0x1234, 0xFFFF}
	s := NewOnDemand(OnDemandOptions{})
	n, err := ReadSnapshot(bytes.NewReader(legacy4Stream(t, 1, keys)), nil, nil, s)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || s.Len() != 0 || s.NegativeLen() != 0 {
		t.Fatalf("v1 restore installed %d records (%d/%d classes), want 0", n, s.Len(), s.NegativeLen())
	}
}

// TestRestoreLegacy4KeyRangeChecked: a kind-1 record whose key is wider
// than 16 bits still fails the whole load, although kind-1 records are
// otherwise discarded.
func TestRestoreLegacy4KeyRangeChecked(t *testing.T) {
	for _, version := range []byte{1, snapshotVersion} {
		raw := legacy4Stream(t, version, []uint64{0x6996, 0x1_6996})
		s := NewOnDemand(OnDemandOptions{})
		if _, err := ReadSnapshot(bytes.NewReader(raw), nil, nil, s); !errors.Is(err, ErrSnapshot) {
			t.Fatalf("v%d: 17-bit key loaded with err %v, want ErrSnapshot", version, err)
		}
	}
}

// TestRestoreGoldenV3: a snapshot written before the cut-cache was
// removed — kind-1 cut-cache records next to the kind-2 and kind-3
// records of learnTwo's store — still loads, and installs exactly the
// store's 2 learned and 1 negative class.
func TestRestoreGoldenV3(t *testing.T) {
	path := filepath.Join("testdata", "v3-cutcache-store.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// 64 cut-cache records, 2 learned classes and 1 negative class.
	if string(raw[:4]) != snapshotMagic+"\x03" || raw[4] != 67 {
		t.Fatalf("golden header % x, want v3 with 67 records", raw[:5])
	}
	s := NewOnDemand(OnDemandOptions{})
	n, err := LoadSnapshotFile(path, nil, nil, s)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || s.Len() != 2 || s.NegativeLen() != 1 {
		t.Fatalf("golden snapshot installed %d records (%d learned, %d negative), want 3 (2, 1)",
			n, s.Len(), s.NegativeLen())
	}
	for _, f := range []tt.TT{and5(), majority5()} {
		if _, _, ok := s.Lookup(context.Background(), f); !ok {
			t.Fatalf("golden snapshot lost the class of %v", f)
		}
	}
	if s.Synths() != 0 {
		t.Fatalf("golden store ran %d ladders, want 0", s.Synths())
	}
}
