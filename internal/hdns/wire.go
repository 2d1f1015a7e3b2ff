package hdns

// Wire types exchanged between HDNS clients and nodes as rpc frame
// bodies, in the hand-rolled binary encoding of wirecodec.go. A request
// is an Op (store.go) in walrec.go's op layout, the one the replication
// frame, the WAL record and the snapshot carry.
//
// Field encodings are internal/wire's; bytes decode aliasing the body,
// and a zero-length bytes/strs/attrs/list decodes to nil. Fields follow
// in the order listed with no tags, so a new field means a new line
// here, in the codec and nowhere else — the reflection-filled round trip
// in wirecodec_test.go fails until it has one.
//
// Request (every method's body): the format byte reqV1, walrec.go's op
// body, then the read tail. Client.Do sends it on the method that
// node.go's methods table gives its kind:
//
//	filter   str
//	scope    varint
//	limit    varint
//	watchID  uvarint
//	secret   str
//
// The node stamps the kind from the method it arrived on, and a write's
// id and clock itself: whatever the client put there is overwritten.
//
// Rsp:
//
//	view     flags uint8 (1 Exists, 2 IsCtx), obj bytes, attrs attrs
//	list     uvarint count, then per entry: name str, isCtx bool, obj bytes
//	hits     uvarint count, then per entry: name strs, isCtx bool,
//	         obj bytes, attrs attrs
//	watchID  uvarint
//	expiry   varint
//
// EventMsg:
//
//	watchID  uvarint
//	kind     uint8
//	name     strs
//	obj      bytes
//	old      bytes
//	name2    strs        (a rename's new name)
//
// Trailing bytes after the last field are a decode error, as in the rpc
// frame codec: a message parses exactly or is rejected.

// Rsp is the universal response body.
type Rsp struct {
	View    NodeView
	List    []ListEntry
	Hits    []SearchHit
	WatchID uint64
	Expiry  int64
}

// EventMsg is pushed to watching clients.
type EventMsg struct {
	WatchID uint64
	Kind    OpKind
	Name    []string
	Obj     []byte
	Old     []byte
	Name2   []string // a rename's new name
}

// mEvent is the push method a watch's events arrive on. A request's
// method is its kind's row in node.go's methods table.
const mEvent = "hdns.event"
