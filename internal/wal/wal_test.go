package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func collect(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var out [][]byte
	if _, err := l.Replay(func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%d-%s", i, bytes.Repeat([]byte{byte(i)}, i%32)))
		want = append(want, p)
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestRotatePrune(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		if err := l.Append([]byte(fmt.Sprintf("old-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	boundary, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte(fmt.Sprintf("new-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Segments(); got != 2 {
		t.Fatalf("segments = %d, want 2", got)
	}
	// Everything is still replayable before the prune.
	if got := collect(t, l); len(got) != 15 {
		t.Fatalf("pre-prune replay %d records, want 15", len(got))
	}
	if err := l.Prune(boundary); err != nil {
		t.Fatal(err)
	}
	if got := l.Segments(); got != 1 {
		t.Fatalf("segments after prune = %d, want 1", got)
	}
	got := collect(t, l)
	if len(got) != 5 || string(got[0]) != "new-0" {
		t.Fatalf("post-prune replay = %d records (first %q), want the 5 new ones", len(got), got[0])
	}
}

// A crash mid-append leaves a torn record at the tail of the last
// segment; replay must heal it by truncation, keep every whole record,
// and leave the log appendable.
func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := l.Append([]byte(fmt.Sprintf("rec-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-record: keep 10 whole records plus half of the 11th.
	recLen := headerSize + len("rec-00")
	torn := data[:10*recLen+recLen/2]
	if err := os.WriteFile(seg, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := collect(t, l2)
	if len(got) != 10 {
		t.Fatalf("recovered %d records, want 10", len(got))
	}
	// The file is truncated to the last whole record and appendable again.
	if info, _ := os.Stat(seg); info.Size() != int64(10*recLen) {
		t.Fatalf("segment not truncated: %d bytes, want %d", info.Size(), 10*recLen)
	}
	if err := l2.Append([]byte("rec-new")); err != nil {
		t.Fatal(err)
	}
	var last []byte
	if _, err := l2.Replay(func(p []byte) error { last = append(last[:0], p...); return nil }); err != nil {
		t.Fatal(err)
	}
	if string(last) != "rec-new" {
		t.Fatalf("append after recovery: last record %q", last)
	}
}

// Corruption away from the tail is damage to acked history and must be
// an error, never silently healed.
func TestMidFileCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append([]byte(fmt.Sprintf("rec-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload bit in the middle of the first (sealed) segment.
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if _, err := l2.Replay(func([]byte) error { return nil }); err == nil {
		t.Fatal("replay of a corrupt sealed segment must fail")
	}
}

func TestReadRecordRejectsExactly(t *testing.T) {
	rec := AppendRecord(nil, []byte("payload"))
	// Every strict prefix is truncated, never corrupt, never success.
	for i := 0; i < len(rec); i++ {
		if _, _, err := ReadRecord(rec[:i]); err != ErrTruncated {
			t.Fatalf("prefix %d/%d: err = %v, want ErrTruncated", i, len(rec), err)
		}
	}
	p, rest, err := ReadRecord(rec)
	if err != nil || string(p) != "payload" || len(rest) != 0 {
		t.Fatalf("full record: %q %v %v", p, rest, err)
	}
}

// FuzzWALRecord fuzzes the record codec: decoding arbitrary bytes either
// fails typed or yields a payload whose re-encoding reproduces exactly
// the bytes consumed (reject-exactly), and a valid stream truncated at
// any point recovers every whole record and classifies the tear as
// ErrTruncated — the contract torn-tail recovery rests on.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte("hello"), uint16(3))
	f.Add([]byte{}, uint16(0))
	f.Add(bytes.Repeat([]byte{0xab}, 300), uint16(299))
	f.Add(AppendRecord(nil, []byte("framed")), uint16(5))
	// An hdns OpExpire record: version 8, kind 9, no lease, now 1234567,
	// id "n1-4", name [a b], nothing else.
	f.Add(AppendRecord(nil, []byte{8, 9, 0, 0, 0x87, 0xad, 0x4b, 4, 'n', '1', '-', '4', 2, 1, 'a', 1, 'b', 0, 0, 0, 0}), uint16(12))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		// Arbitrary bytes: decode must not panic; success implies exact
		// re-encode of the consumed prefix.
		payload, rest, err := ReadRecord(data)
		if err == nil {
			consumed := data[:len(data)-len(rest)]
			if !bytes.Equal(AppendRecord(nil, payload), consumed) {
				t.Fatalf("decode(%x) accepted bytes its re-encode does not reproduce", consumed)
			}
		}

		// Stream property: frame the input as records, truncate anywhere;
		// whole records survive, the tear reads as truncated (a tear must
		// never alias to corruption or to a phantom record).
		var stream []byte
		recs := [][]byte{data, {}, data}
		for _, r := range recs {
			stream = AppendRecord(stream, r)
		}
		cutAt := int(cut) % (len(stream) + 1)
		torn := stream[:cutAt]
		i := 0
		for len(torn) > 0 {
			p, next, err := ReadRecord(torn)
			if err != nil {
				if err != ErrTruncated {
					t.Fatalf("tear at %d read as %v, want ErrTruncated", cutAt, err)
				}
				break
			}
			if i >= len(recs) || !bytes.Equal(p, recs[i]) {
				t.Fatalf("record %d corrupted by tear at %d", i, cutAt)
			}
			i++
			torn = next
		}
	})
}
