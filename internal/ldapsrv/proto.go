package ldapsrv

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"gondi/internal/filter"
	"gondi/internal/ldapsrv/ber"
)

// LDAP application protocol-op tags (RFC 4511).
const (
	AppBindRequest      = 0
	AppBindResponse     = 1
	AppUnbindRequest    = 2
	AppSearchRequest    = 3
	AppSearchEntry      = 4
	AppSearchDone       = 5
	AppModifyRequest    = 6
	AppModifyResponse   = 7
	AppAddRequest       = 8
	AppAddResponse      = 9
	AppDelRequest       = 10
	AppDelResponse      = 11
	AppModifyDNRequest  = 12
	AppModifyDNResponse = 13
	AppCompareRequest   = 14
	AppCompareResponse  = 15
)

// LDAP result codes (RFC 4511 §4.1.9).
const (
	ResultSuccess            = 0
	ResultOperationsError    = 1
	ResultProtocolError      = 2
	ResultTimeLimitExceeded  = 3
	ResultSizeLimitExceeded  = 4
	ResultCompareFalse       = 5
	ResultCompareTrue        = 6
	ResultNoSuchObject       = 32
	ResultInvalidDNSyntax    = 34
	ResultUnwillingToPerform = 53
	ResultNotAllowedOnNonLea = 66
	ResultEntryAlreadyExists = 68
	ResultInvalidCredentials = 49
	ResultInsufficientAccess = 50
	ResultBusy               = 51
	ResultOther              = 80
)

// retryAfterPrefix starts a busy result's diagnostic message when it
// carries the server's retry hint: "retry-after-ms=N".
const retryAfterPrefix = "retry-after-ms="

// resultNames names the result codes this package knows.
var resultNames = map[int]string{
	ResultSuccess: "success", ResultOperationsError: "operationsError",
	ResultProtocolError: "protocolError", ResultTimeLimitExceeded: "timeLimitExceeded",
	ResultSizeLimitExceeded: "sizeLimitExceeded", ResultCompareFalse: "compareFalse",
	ResultCompareTrue: "compareTrue", ResultNoSuchObject: "noSuchObject",
	ResultInvalidDNSyntax: "invalidDNSyntax", ResultUnwillingToPerform: "unwillingToPerform",
	ResultNotAllowedOnNonLea: "notAllowedOnNonLeaf", ResultEntryAlreadyExists: "entryAlreadyExists",
	ResultInvalidCredentials: "invalidCredentials", ResultInsufficientAccess: "insufficientAccessRights",
	ResultBusy: "busy", ResultOther: "other",
}

// ResultCodeString names a result code for diagnostics.
func ResultCodeString(code int) string {
	if n, ok := resultNames[code]; ok {
		return n
	}
	return fmt.Sprintf("resultCode(%d)", code)
}

// Search scopes.
const (
	ScopeBaseObject   = 0
	ScopeSingleLevel  = 1
	ScopeWholeSubtree = 2
)

// Modify operation codes.
const (
	ModifyAdd     = 0
	ModifyDelete  = 1
	ModifyReplace = 2
)

// EntryAttr is one attribute of an entry.
type EntryAttr struct {
	Type string
	Vals []string
}

// Entry is a directory entry as transmitted in search results and add
// requests.
type Entry struct {
	DN    string
	Attrs []EntryAttr
}

// Get returns the values of the named attribute (case-insensitive).
func (e *Entry) Get(attrType string) []string {
	for _, a := range e.Attrs {
		if strings.EqualFold(a.Type, attrType) {
			return a.Vals
		}
	}
	return nil
}

// GetFirst returns the first value of the attribute, or "".
func (e *Entry) GetFirst(attrType string) string {
	v := e.Get(attrType)
	if len(v) == 0 {
		return ""
	}
	return v[0]
}

// Result is an LDAPResult.
type Result struct {
	Code      int
	MatchedDN string
	Message   string
}

// ResultError converts a non-success Result into an error.
type ResultError struct {
	Op     string
	Result Result
}

func (e *ResultError) Error() string {
	return fmt.Sprintf("ldap: %s: %s (%s)", e.Op, ResultCodeString(e.Result.Code), e.Result.Message)
}

// The LDAP wire codec. Every message is appended into one ber.Builder
// and read in place with a ber.Reader. Each request's appender (the
// client's) sits beside its reader (the server's), as does each
// response's. A reader takes the whole op that splitMessage returns and
// reads its body with the reader it entered.

// maxBERMessage bounds one LDAP PDU.
const maxBERMessage = 16 << 20

// maxFilterDepth bounds the nesting of a search filter the server reads.
// Reading and evaluating a filter recurse once per level, so without it
// a message of a few megabytes could grow a goroutine's stack past the
// runtime's limit and abort the process.
const maxFilterDepth = 64

// frameReader reads LDAPMessages off one connection. Its header array
// lives with the connection: a stack array handed to an io.Reader would
// escape and cost an allocation per message.
type frameReader struct {
	r   io.Reader
	hdr [2 + ber.MaxLengthBytes]byte
}

// read reads one message, header and content, into one buffer.
func (f *frameReader) read() ([]byte, error) {
	if _, err := io.ReadFull(f.r, f.hdr[:2]); err != nil {
		return nil, err
	}
	size := 2
	if k := int(f.hdr[1] & 0x7F); f.hdr[1]&0x80 != 0 && k <= ber.MaxLengthBytes {
		size += k
		if _, err := io.ReadFull(f.r, f.hdr[2:size]); err != nil {
			return nil, err
		}
	}
	_, n, _, err := ber.Header(f.hdr[:size])
	if err != nil {
		return nil, err
	}
	if n > maxBERMessage {
		return nil, fmt.Errorf("ldap: message of %d bytes exceeds limit", n)
	}
	msg := make([]byte, size+n)
	copy(msg, f.hdr[:size])
	_, err = io.ReadFull(f.r, msg[size:])
	return msg, err
}

// splitMessage splits an LDAPMessage into its ID and its protocol op,
// which it returns whole (tag and length included) as a slice of msg.
func splitMessage(msg []byte) (id int64, op []byte, err error) {
	r := ber.NewReader(msg)
	m := r.Enter(ber.Sequence)
	id = m.Int(ber.TagInteger)
	start := m.Offset()
	m.Next()
	m.End()
	r.End()
	if err := r.Err(); err != nil {
		return 0, nil, err
	}
	if op = msg[start:]; op[0]&0xC0 != ber.ClassApplication {
		return 0, nil, fmt.Errorf("ldap: protocol op class %x", op[0]&0xC0)
	}
	return id, op, nil
}

// encodeMessage returns LDAPMessage id carrying the op appendOp appends.
// A Builder handed to a func value cannot live on the stack, so it is
// allocated together with its buffer's first 256 bytes.
func encodeMessage(id int64, appendOp func(*ber.Builder)) []byte {
	m := new(struct {
		b   ber.Builder
		buf [256]byte
	})
	m.b = ber.NewBuilder(m.buf[:0])
	start := beginMessage(&m.b, id)
	appendOp(&m.b)
	m.b.End(start)
	return m.b.Bytes()
}

// beginMessage opens LDAPMessage id; the caller appends its protocol op
// and ends the message.
func beginMessage(b *ber.Builder, id int64) int {
	m := b.Begin(ber.Sequence)
	b.Int(ber.TagInteger, id)
	return m
}

// appTag is the identifier octet of the constructed protocol op num.
func appTag(num byte) byte { return ber.ClassApplication | ber.Constructed | num }

// opNum is the tag number of a protocol op splitMessage returned.
func opNum(op []byte) byte { return op[0] & 0x1F }

func appendResult(b *ber.Builder, num byte, r Result) {
	m := b.Begin(appTag(num))
	b.Int(ber.TagEnumerated, int64(r.Code))
	b.Str(ber.TagOctetString, r.MatchedDN)
	b.Str(ber.TagOctetString, r.Message)
	b.End(m)
}

// readResult reads the LDAPResult op that closes a request.
func readResult(op []byte) (Result, error) {
	r := ber.NewReader(op)
	r = r.Enter(appTag(opNum(op)))
	res := Result{
		Code:      int(r.Int(ber.TagEnumerated)),
		MatchedDN: r.Str(ber.TagOctetString),
		Message:   r.Str(ber.TagOctetString),
	}
	r.End()
	return res, r.Err()
}

func appendEntry(b *ber.Builder, e *Entry) {
	m := b.Begin(appTag(AppSearchEntry))
	b.Str(ber.TagOctetString, e.DN)
	appendAttrList(b, e.Attrs)
	b.End(m)
}

func readEntry(op []byte) (Entry, error) {
	r := ber.NewReader(op)
	r = r.Enter(appTag(AppSearchEntry))
	e := Entry{DN: r.Str(ber.TagOctetString), Attrs: readAttrList(&r)}
	r.End()
	return e, r.Err()
}

// appendAttrList appends an AttributeList (or PartialAttributeList).
func appendAttrList(b *ber.Builder, attrs []EntryAttr) {
	m := b.Begin(ber.Sequence)
	for _, a := range attrs {
		appendAttr(b, a)
	}
	b.End(m)
}

func readAttrList(r *ber.Reader) []EntryAttr {
	list := r.Enter(ber.Sequence)
	var out []EntryAttr
	if n := list.Count(); n > 0 {
		out = make([]EntryAttr, 0, n)
	}
	for list.More() {
		out = append(out, readAttr(&list))
	}
	return out
}

// appendAttr appends one attribute: its type and the SET of its values.
func appendAttr(b *ber.Builder, a EntryAttr) {
	m := b.Begin(ber.Sequence)
	b.Str(ber.TagOctetString, a.Type)
	appendStringList(b, ber.Set, a.Vals)
	b.End(m)
}

func readAttr(r *ber.Reader) EntryAttr {
	k := r.Enter(ber.Sequence)
	a := EntryAttr{Type: k.Str(ber.TagOctetString), Vals: readStringList(&k, ber.Set)}
	k.End()
	return a
}

// appendStringList appends a SEQUENCE or SET (tag) of octet strings.
func appendStringList(b *ber.Builder, tag byte, ss []string) {
	m := b.Begin(tag)
	for _, s := range ss {
		b.Str(ber.TagOctetString, s)
	}
	b.End(m)
}

func readStringList(r *ber.Reader, tag byte) []string {
	k := r.Enter(tag)
	var out []string
	if n := k.Count(); n > 0 {
		out = make([]string, 0, n)
	}
	for k.More() {
		out = append(out, k.Str(ber.TagOctetString))
	}
	return out
}

// errAuthMethod answers a bind that is not a simple bind.
var errAuthMethod = errors.New("only simple bind supported")

func appendBindRequest(b *ber.Builder, dn, password string) {
	m := b.Begin(appTag(AppBindRequest))
	b.Int(ber.TagInteger, 3) // LDAPv3
	b.Str(ber.TagOctetString, dn)
	b.Str(ber.ClassContext|0, password)
	b.End(m)
}

func readBindRequest(op []byte) (dn, password string, err error) {
	r := ber.NewReader(op)
	r = r.Enter(appTag(AppBindRequest))
	version := r.Int(ber.TagInteger)
	dn = r.Str(ber.TagOctetString)
	if t := r.Peek(); t != 0 && t != ber.ClassContext|0 {
		return "", "", errAuthMethod
	}
	password = r.Str(ber.ClassContext | 0)
	if r.End(); r.Err() == nil && version != 3 {
		r.Fail(fmt.Errorf("ldap: protocol version %d", version))
	}
	return dn, password, r.Err()
}

// searchRequest is a SearchRequest's fields; timeLimit is in seconds.
type searchRequest struct {
	baseDN               string
	scope, deref         int64
	sizeLimit, timeLimit int64
	typesOnly            bool
	filter               *filter.Node
	attrs                []string
}

func appendSearchRequest(b *ber.Builder, q *searchRequest) {
	m := b.Begin(appTag(AppSearchRequest))
	b.Str(ber.TagOctetString, q.baseDN)
	b.Int(ber.TagEnumerated, q.scope)
	b.Int(ber.TagEnumerated, q.deref)
	b.Int(ber.TagInteger, q.sizeLimit)
	b.Int(ber.TagInteger, q.timeLimit)
	b.Bool(ber.TagBoolean, q.typesOnly)
	appendFilter(b, q.filter)
	appendStringList(b, ber.Sequence, q.attrs)
	b.End(m)
}

func readSearchRequest(op []byte) (searchRequest, error) {
	r := ber.NewReader(op)
	r = r.Enter(appTag(AppSearchRequest))
	q := searchRequest{
		baseDN:    r.Str(ber.TagOctetString),
		scope:     r.Int(ber.TagEnumerated),
		deref:     r.Int(ber.TagEnumerated),
		sizeLimit: r.Int(ber.TagInteger),
		timeLimit: r.Int(ber.TagInteger),
		typesOnly: r.Bool(ber.TagBoolean),
		filter:    readFilter(&r, 1),
		attrs:     readStringList(&r, ber.Sequence),
	}
	r.End()
	return q, r.Err()
}

func appendAddRequest(b *ber.Builder, dn string, attrs []EntryAttr) {
	m := b.Begin(appTag(AppAddRequest))
	b.Str(ber.TagOctetString, dn)
	appendAttrList(b, attrs)
	b.End(m)
}

func readAddRequest(op []byte) (dn string, attrs []EntryAttr, err error) {
	r := ber.NewReader(op)
	r = r.Enter(appTag(AppAddRequest))
	dn, attrs = r.Str(ber.TagOctetString), readAttrList(&r)
	r.End()
	return dn, attrs, r.Err()
}

// A DelRequest is a primitive op whose content is the DN itself.
func appendDelRequest(b *ber.Builder, dn string) {
	b.Str(ber.ClassApplication|AppDelRequest, dn)
}

func readDelRequest(op []byte) (string, error) {
	r := ber.NewReader(op)
	dn := r.Str(ber.ClassApplication | AppDelRequest)
	return dn, r.Err()
}

func appendModifyRequest(b *ber.Builder, dn string, changes []ModifyChange) {
	m := b.Begin(appTag(AppModifyRequest))
	b.Str(ber.TagOctetString, dn)
	list := b.Begin(ber.Sequence)
	for _, ch := range changes {
		c := b.Begin(ber.Sequence)
		b.Int(ber.TagEnumerated, int64(ch.Op))
		appendAttr(b, ch.Attr)
		b.End(c)
	}
	b.End(list)
	b.End(m)
}

func readModifyRequest(op []byte) (dn string, changes []ModifyChange, err error) {
	r := ber.NewReader(op)
	r = r.Enter(appTag(AppModifyRequest))
	dn = r.Str(ber.TagOctetString)
	list := r.Enter(ber.Sequence)
	if n := list.Count(); n > 0 {
		changes = make([]ModifyChange, 0, n)
	}
	for list.More() {
		c := list.Enter(ber.Sequence)
		changes = append(changes, ModifyChange{Op: int(c.Int(ber.TagEnumerated)), Attr: readAttr(&c)})
		c.End()
	}
	r.End()
	return dn, changes, r.Err()
}

func appendModifyDNRequest(b *ber.Builder, dn, newRDN string, deleteOldRDN bool) {
	m := b.Begin(appTag(AppModifyDNRequest))
	b.Str(ber.TagOctetString, dn)
	b.Str(ber.TagOctetString, newRDN)
	b.Bool(ber.TagBoolean, deleteOldRDN)
	b.End(m)
}

func readModifyDNRequest(op []byte) (dn, newRDN string, deleteOldRDN bool, err error) {
	r := ber.NewReader(op)
	r = r.Enter(appTag(AppModifyDNRequest))
	dn, newRDN, deleteOldRDN = r.Str(ber.TagOctetString), r.Str(ber.TagOctetString), r.Bool(ber.TagBoolean)
	r.End()
	return dn, newRDN, deleteOldRDN, r.Err()
}

func appendCompareRequest(b *ber.Builder, dn, attrType, value string) {
	m := b.Begin(appTag(AppCompareRequest))
	b.Str(ber.TagOctetString, dn)
	appendStringList(b, ber.Sequence, []string{attrType, value})
	b.End(m)
}

func readCompareRequest(op []byte) (dn, attrType, value string, err error) {
	r := ber.NewReader(op)
	r = r.Enter(appTag(AppCompareRequest))
	dn = r.Str(ber.TagOctetString)
	ava := r.Enter(ber.Sequence)
	attrType, value = ava.Str(ber.TagOctetString), ava.Str(ber.TagOctetString)
	ava.End()
	r.End()
	return dn, attrType, value, r.Err()
}

// filterOps maps a filter choice's context tag number (RFC 4511
// §4.5.1.7) to its op; filterTag maps back.
var filterOps = [...]filter.Op{
	filter.OpAnd, filter.OpOr, filter.OpNot, filter.OpEqual, filter.OpSubstring,
	filter.OpGreaterEq, filter.OpLessEq, filter.OpPresent, filter.OpApprox,
}

func filterTag(op filter.Op) byte { return byte(slices.Index(filterOps[:], op)) }

// Identifier octets of a constructed filter choice and a substring piece.
const (
	filterSet    = ber.ClassContext | ber.Constructed
	pieceInitial = ber.ClassContext | 0
	pieceAny     = ber.ClassContext | 1
	pieceFinal   = ber.ClassContext | 2
)

// appendFilter appends a parsed RFC 4515 filter in its RFC 4511 BER form.
func appendFilter(b *ber.Builder, n *filter.Node) {
	tag := filterTag(n.Op)
	if n.Op == filter.OpPresent {
		b.Str(ber.ClassContext|tag, n.Attr)
		return
	}
	m := b.Begin(filterSet | tag)
	switch n.Op {
	case filter.OpAnd, filter.OpOr, filter.OpNot:
		for _, k := range n.Children {
			appendFilter(b, k)
		}
	case filter.OpSubstring:
		b.Str(ber.TagOctetString, n.Attr)
		pieces := b.Begin(ber.Sequence)
		if n.Initial != "" {
			b.Str(pieceInitial, n.Initial)
		}
		for _, a := range n.Any {
			b.Str(pieceAny, a)
		}
		if n.Final != "" {
			b.Str(pieceFinal, n.Final)
		}
		b.End(pieces)
	default: // an attribute value assertion
		b.Str(ber.TagOctetString, n.Attr)
		b.Str(ber.TagOctetString, n.Value)
	}
	b.End(m)
}

// errFilter reports a filter the server does not read.
var errFilter = errors.New("ldap: malformed filter")

// readFilter reads a filter nested depth levels deep; past maxFilterDepth
// it fails without reading further.
func readFilter(r *ber.Reader, depth int) *filter.Node {
	tag := r.Peek()
	if num := int(tag & 0x1F); tag&0xC0 != ber.ClassContext || num >= len(filterOps) {
		r.Fail(errFilter)
		return nil
	}
	n := &filter.Node{Op: filterOps[tag&0x1F]}
	if n.Op == filter.OpPresent {
		n.Attr = r.Str(ber.ClassContext | tag&0x1F)
		return n
	}
	k := r.Enter(tag | filterSet)
	switch n.Op {
	case filter.OpAnd, filter.OpOr, filter.OpNot:
		if depth >= maxFilterDepth {
			r.Fail(fmt.Errorf("ldap: filter nested deeper than %d", maxFilterDepth))
			return nil
		}
		count := k.Count()
		if count == 0 || n.Op == filter.OpNot && count != 1 {
			r.Fail(errFilter)
		}
		n.Children = make([]*filter.Node, 0, count)
		for k.More() {
			n.Children = append(n.Children, readFilter(&k, depth+1))
		}
	case filter.OpSubstring:
		n.Attr = k.Str(ber.TagOctetString)
		pieces := k.Enter(ber.Sequence)
		// initial first, final last, each at most once; no piece empty.
		for i := 0; pieces.More(); i++ {
			t := pieces.Peek()
			switch s := pieces.Str(t); {
			case s == "":
				pieces.Fail(errFilter)
			case t == pieceInitial && i == 0:
				n.Initial = s
			case t == pieceAny:
				n.Any = append(n.Any, s)
			case t == pieceFinal && !pieces.More():
				n.Final = s
			default:
				pieces.Fail(errFilter)
			}
		}
	default:
		n.Attr, n.Value = k.Str(ber.TagOctetString), k.Str(ber.TagOctetString)
	}
	k.End()
	return n
}
