package rpc

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"gondi/internal/wire"
)

// The wire format is a hand-rolled binary encoding on internal/wire's
// helpers, chosen over gob for the hot path: encoding is a single append
// into a pooled buffer and decoding is a zero-copy walk over the read
// buffer (field slices alias the payload), so a steady-state encode or
// decode performs no heap allocations (enforced by
// TestFrameCodecZeroAlloc and the check.sh allocations gate).
//
// Outer framing: 4-byte big-endian payload length, then the payload.
// Payload layout:
//
//	kind    uint8
//	id      uint64 big-endian   (kindCredit: the advertised window)
//	code    uint8               (a status; see status.go)
//	method  uvarint len + bytes
//	err     uvarint len + bytes
//	body    uvarint len + bytes
//	items   (batch kinds only) uvarint count, then per item:
//	        code uint8, method uvarint len + bytes,
//	        err uvarint len + bytes, body uvarint len + bytes
//
// Trailing bytes after the last field are a decode error: a frame either
// parses exactly or is rejected, so corruption cannot smuggle state
// between frames.

// maxBatchItems bounds the item count in one batch frame, guarding the
// decoder against a corrupt count allocating unbounded item slices.
const maxBatchItems = 4096

// frameItem is one operation inside a batch frame.
type frameItem struct {
	Code   uint8
	Method []byte
	Err    []byte
	Body   []byte
}

var errFrameTruncated = fmt.Errorf("rpc: truncated frame: %w", wire.ErrMalformed)

// appendFrame appends f's payload encoding to dst and returns the
// extended slice. It never fails: every frame value has an encoding.
func appendFrame(dst []byte, f *frame) []byte {
	dst = append(dst, f.Kind)
	dst = binary.BigEndian.AppendUint64(dst, f.ID)
	dst = append(dst, f.Code)
	dst = wire.AppendBytes(dst, f.Method)
	dst = wire.AppendBytes(dst, f.Err)
	dst = wire.AppendBytes(dst, f.Body)
	if f.Kind == kindBatchRequest || f.Kind == kindBatchResponse {
		dst = binary.AppendUvarint(dst, uint64(len(f.Items)))
		for i := range f.Items {
			it := &f.Items[i]
			dst = append(dst, it.Code)
			dst = wire.AppendBytes(dst, it.Method)
			dst = wire.AppendBytes(dst, it.Err)
			dst = wire.AppendBytes(dst, it.Body)
		}
	}
	return dst
}

// decodeFrame parses payload into f. Field slices alias payload — the
// caller owns payload and must copy anything that outlives the next read.
// f's Items slice is reused across calls when capacity allows.
func decodeFrame(f *frame, payload []byte) error {
	if len(payload) < 10 {
		return errFrameTruncated
	}
	f.Kind = payload[0]
	f.ID = binary.BigEndian.Uint64(payload[1:9])
	f.Code = payload[9]
	d := wire.NewDecoder(payload[10:])
	f.Method, f.Err, f.Body = d.Bytes(), d.Bytes(), d.Bytes()
	f.Items = f.Items[:0]
	switch f.Kind {
	case kindRequest, kindResponse, kindPush, kindCredit:
	case kindBatchRequest, kindBatchResponse:
		n := d.Count(4) // an item is at least a code and three lengths
		if n > maxBatchItems {
			return fmt.Errorf("rpc: batch of %d items exceeds limit", n)
		}
		for i := 0; i < n; i++ {
			f.Items = append(f.Items, frameItem{Code: d.Byte(), Method: d.Bytes(), Err: d.Bytes(), Body: d.Bytes()})
		}
	default:
		return fmt.Errorf("rpc: unknown frame kind %d", f.Kind)
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("rpc: frame: %w", err)
	}
	return nil
}

// bufPool recycles write-path buffers. Stored as *[]byte so Put does not
// allocate an interface box per cycle.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

// writeFrame encodes f into a pooled buffer — length prefix and payload
// in one slice, one conn.Write — serialized by mu.
func writeFrame(w io.Writer, mu *sync.Mutex, f *frame) error {
	bp := bufPool.Get().(*[]byte)
	b := (*bp)[:0]
	b = append(b, 0, 0, 0, 0) // length prefix placeholder
	b = appendFrame(b, f)
	if len(b)-4 > maxFrame {
		*bp = b
		bufPool.Put(bp)
		return fmt.Errorf("rpc: frame of %d bytes exceeds limit", len(b)-4)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	mu.Lock()
	_, err := w.Write(b)
	mu.Unlock()
	*bp = b
	bufPool.Put(bp)
	return err
}

// frameReader reads frames from one connection, reusing its buffer and
// frame across reads. Not safe for concurrent use; each read invalidates
// the previous frame's field slices.
type frameReader struct {
	r   io.Reader
	buf []byte
	f   frame
}

// next reads and decodes one frame. The returned frame (and everything it
// references) is valid only until the following next call.
func (fr *frameReader) next() (*frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("rpc: frame of %d bytes exceeds limit", n)
	}
	if uint32(cap(fr.buf)) < n {
		fr.buf = make([]byte, n)
	}
	payload := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, err
	}
	if err := decodeFrame(&fr.f, payload); err != nil {
		return nil, err
	}
	return &fr.f, nil
}
