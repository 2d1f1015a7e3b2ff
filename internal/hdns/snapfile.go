package hdns

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Snapshot file container: the store's snapshot (walrec.go's op stream)
// wrapped in a checksummed, chunked frame so at-rest corruption — a
// flipped bit, a torn page, a truncated file — is detected at load
// instead of being decoded into a silently wrong tree. The layout
// follows the wal framing discipline (big-endian, reject-exactly):
//
//	magic    "GSNAP1\n"
//	version  uint64    lineage header: store version at snapshot time,
//	                   cross-checked against the decoded tree
//	hcrc     uint32    CRC-32C of the version field (the chunk CRCs do
//	                   not cover the header, so it carries its own)
//	chunks   until EOF, each:
//	  length uint32    chunk payload byte count
//	  crc    uint32    CRC-32C (Castagnoli) of the chunk payload
//	  payload
//
// A file without the magic is an older build's bare gob snapshot
// (snapgob.go) and is accepted as-is, so existing replicas upgrade in
// place; so is a gob inside the container.

const snapMagic = "GSNAP1\n"

// snapChunk is the encoder's chunk size: large enough that CRC overhead
// vanishes, small enough that the damage a single bad chunk localizes
// to is reportable.
const snapChunk = 256 << 10

// snapMaxChunk bounds a decoded chunk length, guarding load against a
// corrupt length field allocating unbounded buffers.
const snapMaxChunk = 4 << 20

// ErrSnapshotCorrupt marks a snapshot file that failed integrity
// verification: bad chunk CRC, torn framing, or a lineage mismatch.
var ErrSnapshotCorrupt = errors.New("hdns: snapshot corrupt")

var snapCRCTable = crc32.MakeTable(crc32.Castagnoli)

// encodeSnapshotFile wraps a raw store snapshot in the checksummed
// container.
func encodeSnapshotFile(version uint64, raw []byte) []byte {
	// magic + version + per-chunk header overhead, sized exactly.
	chunks := (len(raw) + snapChunk - 1) / snapChunk
	if chunks == 0 {
		chunks = 1
	}
	out := make([]byte, 0, len(snapMagic)+12+len(raw)+8*chunks)
	out = append(out, snapMagic...)
	out = binary.BigEndian.AppendUint64(out, version)
	out = binary.BigEndian.AppendUint32(out, crc32.Checksum(out[len(snapMagic):], snapCRCTable))
	for len(raw) > 0 {
		n := len(raw)
		if n > snapChunk {
			n = snapChunk
		}
		out = binary.BigEndian.AppendUint32(out, uint32(n))
		out = binary.BigEndian.AppendUint32(out, crc32.Checksum(raw[:n], snapCRCTable))
		out = append(out, raw[:n]...)
		raw = raw[n:]
	}
	return out
}

// decodeSnapshotFile verifies and unwraps a snapshot file. legacy
// reports a bare gob snapshot (returned as-is, version 0 — the gob
// carries its own). Verification failure returns an error
// matching ErrSnapshotCorrupt; the caller quarantines, never restores.
func decodeSnapshotFile(b []byte) (version uint64, raw []byte, legacy bool, err error) {
	if len(b) < len(snapMagic) || string(b[:len(snapMagic)]) != snapMagic {
		return 0, b, true, nil
	}
	b = b[len(snapMagic):]
	if len(b) < 12 {
		return 0, nil, false, fmt.Errorf("%w: truncated lineage header", ErrSnapshotCorrupt)
	}
	version = binary.BigEndian.Uint64(b[:8])
	if crc32.Checksum(b[:8], snapCRCTable) != binary.BigEndian.Uint32(b[8:12]) {
		return 0, nil, false, fmt.Errorf("%w: lineage header crc mismatch", ErrSnapshotCorrupt)
	}
	b = b[12:]
	raw = make([]byte, 0, len(b))
	for len(b) > 0 {
		if len(b) < 8 {
			return 0, nil, false, fmt.Errorf("%w: torn chunk header", ErrSnapshotCorrupt)
		}
		n := binary.BigEndian.Uint32(b[:4])
		if n > snapMaxChunk {
			return 0, nil, false, fmt.Errorf("%w: chunk length %d exceeds limit", ErrSnapshotCorrupt, n)
		}
		want := binary.BigEndian.Uint32(b[4:8])
		body := b[8:]
		if uint32(len(body)) < n {
			return 0, nil, false, fmt.Errorf("%w: torn chunk (%d of %d bytes)", ErrSnapshotCorrupt, len(body), n)
		}
		chunk := body[:n]
		if crc32.Checksum(chunk, snapCRCTable) != want {
			return 0, nil, false, fmt.Errorf("%w: chunk crc mismatch at offset %d", ErrSnapshotCorrupt, len(raw))
		}
		raw = append(raw, chunk...)
		b = body[n:]
	}
	return version, raw, false, nil
}
