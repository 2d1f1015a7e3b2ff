package hdns

// Wire types exchanged between HDNS clients and nodes as rpc frame
// bodies, in the hand-rolled binary encoding of wirecodec.go (the
// replication frame between nodes and the WAL record are in walrec.go).
//
// Field encodings: str is a uvarint length + bytes, strs a uvarint
// count + that many str, bytes a str that decodes aliasing the body,
// attrs a uvarint count, then per entry a key str and a vals strs; bool
// is one byte, 0 or 1; varint is zig-zag (signed), uvarint unsigned. A
// zero-length bytes/strs/attrs/list decodes to nil, as gob's omitted
// zero values did. Fields follow in the order listed with no tags, so a
// new field means a new line here, in the codec and nowhere else — the
// reflection-filled round trip in wirecodec_test.go fails until it has one.
//
// Req:
//
//	name     strs
//	name2    strs
//	obj      bytes
//	attrs    attrs
//	replace  bool        (ReplaceAttrs)
//	mods     uvarint count, then per entry: op varint, id str, vals strs
//	filter   str
//	scope    varint
//	limit    varint
//	lease    varint      (LeaseMillis)
//	watchID  uvarint
//	secret   str
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

// Req is the universal request body.
type Req struct {
	Name         []string
	Name2        []string
	Obj          []byte
	Attrs        map[string][]string
	ReplaceAttrs bool
	Mods         []ModRec
	Filter       string
	Scope        int
	Limit        int
	LeaseMillis  int64
	WatchID      uint64
	Secret       string
}

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

// RPC method names.
const (
	mAuth       = "hdns.auth"
	mLookup     = "hdns.lookup"
	mBind       = "hdns.bind"
	mRebind     = "hdns.rebind"
	mUnbind     = "hdns.unbind"
	mRename     = "hdns.rename"
	mList       = "hdns.list"
	mCreateCtx  = "hdns.createCtx"
	mDestroyCtx = "hdns.destroyCtx"
	mModAttrs   = "hdns.modAttrs"
	mSearch     = "hdns.search"
	mWatch      = "hdns.watch"
	mUnwatch    = "hdns.unwatch"
	mLease      = "hdns.lease"
	mEvent      = "hdns.event" // push
)
