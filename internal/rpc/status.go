package rpc

import (
	"encoding/binary"
	"errors"
	"math"
	"time"

	"gondi/internal/core"
)

// Response codes: the one failure vocabulary of every protocol built on
// this substrate. Every code but codeOK and codeInternal stands for
// exactly one core error, so a client recovers a failure's type from the
// code byte and never from the err field, which is display text.
const (
	codeOK           = 0
	codeInternal     = 1 // no semantic status: the caller cannot act on it
	codeBusy         = 2 // shed; err is the retry-after hint, uvarint ms
	codeNotFound     = 3
	codeAlreadyBound = 4
	codeNotContext   = 5
	codeNotEmpty     = 6
	codeInvalidName  = 7 // *core.InvalidNameError or core.ErrInvalidNameEmpty
	codeNotSupported = 8
	codeDenied       = 9
	codeUnavailable  = 10 // err is the reason the service gave
)

// sentinels pairs each sentinel-backed code with its core error; the
// server's statusOf and the client's decodeErr read the same table.
var sentinels = [...]struct {
	code uint8
	err  error
}{
	{codeNotFound, core.ErrNotFound},
	{codeAlreadyBound, core.ErrAlreadyBound},
	{codeNotContext, core.ErrNotContext},
	{codeNotEmpty, core.ErrContextNotEmpty},
	{codeNotSupported, core.ErrNotSupported},
	{codeDenied, core.ErrNoPermission},
}

// hardCapBusy is the busy frame's err field for a hard-cap shed.
var hardCapBusy = binary.AppendUvarint(nil, uint64(hardCapRetryAfter.Milliseconds()))

// statusOf classifies an error into the vocabulary; anything outside it
// is internal.
func statusOf(err error) uint8 {
	var busy *core.ServerBusyError
	var unavailable *core.ServiceUnavailableError
	var invalid *core.InvalidNameError
	switch {
	case err == nil:
		return codeOK
	case errors.As(err, &busy):
		return codeBusy
	case errors.As(err, &unavailable):
		return codeUnavailable
	case errors.As(err, &invalid), errors.Is(err, core.ErrInvalidNameEmpty):
		return codeInvalidName
	}
	for _, s := range sentinels {
		if errors.Is(err, s.err) {
			return s.code
		}
	}
	return codeInternal
}

// serve runs one request through h and renders the outcome as a
// response's code, body and err fields.
func serve(sc *ServerConn, h Handler, body []byte) (code uint8, out, detail []byte) {
	out, err := h(sc, body)
	var busy *core.ServerBusyError
	var unavailable *core.ServiceUnavailableError
	switch {
	case err == nil:
		return codeOK, out, nil
	case errors.As(err, &busy):
		mBusy.Inc()
		return codeBusy, nil, binary.AppendUvarint(nil, uint64(max(busy.RetryAfter.Milliseconds(), 0)))
	case errors.As(err, &unavailable) && unavailable.Err != nil:
		return codeUnavailable, nil, []byte(unavailable.Err.Error())
	}
	return statusOf(err), nil, []byte(err.Error())
}

// decodeErr is the client's one decode of a failed response to method.
func (c *Client) decodeErr(method string, code uint8, detail string) error {
	switch code {
	case codeBusy:
		ms, n := binary.Uvarint([]byte(detail))
		if n <= 0 || ms > math.MaxInt64/uint64(time.Millisecond) {
			ms = 0
		}
		return &core.ServerBusyError{Endpoint: c.addr, Op: method, RetryAfter: time.Duration(ms) * time.Millisecond}
	case codeUnavailable:
		return &core.ServiceUnavailableError{Endpoint: c.addr, Err: &RemoteError{Method: method, Msg: detail}}
	case codeInvalidName:
		return &RemoteError{Method: method, Msg: detail, err: &core.InvalidNameError{Reason: detail}}
	}
	re := &RemoteError{Method: method, Msg: detail}
	for _, s := range sentinels {
		if s.code == code {
			re.err = s.err
		}
	}
	return re
}

// CoreError returns a call's failure the way a provider surfaces it: an
// error that carries a status as that status's core error, and anything
// else — transport failures, internal handler errors — wrapped in a
// *core.CommunicationError for endpoint. A semantic answer therefore never
// reads as an outage to the cache's serve-stale.
func CoreError(endpoint string, err error) error {
	if err == nil {
		return nil
	}
	if statusOf(err) == codeInternal {
		return &core.CommunicationError{Endpoint: endpoint, Err: err}
	}
	var re *RemoteError
	if errors.As(err, &re) && re.err != nil {
		return re.err
	}
	return err
}
