package ldapsrv

import (
	"fmt"

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

// ResultCodeString names a result code for diagnostics.
func ResultCodeString(code int) string {
	names := map[int]string{
		ResultSuccess: "success", ResultOperationsError: "operationsError",
		ResultProtocolError: "protocolError", ResultTimeLimitExceeded: "timeLimitExceeded",
		ResultSizeLimitExceeded: "sizeLimitExceeded", ResultCompareFalse: "compareFalse",
		ResultCompareTrue: "compareTrue", ResultNoSuchObject: "noSuchObject",
		ResultInvalidDNSyntax: "invalidDNSyntax", ResultUnwillingToPerform: "unwillingToPerform",
		ResultNotAllowedOnNonLea: "notAllowedOnNonLeaf", ResultEntryAlreadyExists: "entryAlreadyExists",
		ResultInvalidCredentials: "invalidCredentials", ResultInsufficientAccess: "insufficientAccessRights",
		ResultBusy: "busy", ResultOther: "other",
	}
	if n, ok := names[code]; ok {
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
		if equalFold(a.Type, attrType) {
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

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if ca >= 'A' && ca <= 'Z' {
			ca += 32
		}
		if cb >= 'A' && cb <= 'Z' {
			cb += 32
		}
		if ca != cb {
			return false
		}
	}
	return true
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

// EncodeResult builds the three standard LDAPResult fields.
func EncodeResult(appTag byte, r Result) *ber.Packet {
	return ber.NewApplication(appTag, true,
		ber.NewEnumerated(int64(r.Code)),
		ber.NewOctetString(r.MatchedDN),
		ber.NewOctetString(r.Message),
	)
}

// DecodeResult parses an LDAPResult body.
func DecodeResult(p *ber.Packet) (Result, error) {
	var r Result
	if len(p.Children) < 3 {
		return r, fmt.Errorf("ldap: short result (%d fields)", len(p.Children))
	}
	code, err := p.Children[0].Int()
	if err != nil {
		return r, err
	}
	r.Code = int(code)
	r.MatchedDN = p.Children[1].Str()
	r.Message = p.Children[2].Str()
	return r, nil
}

// Filter choice context tags (RFC 4511 §4.5.1.7).
const (
	filterAnd        = 0
	filterOr         = 1
	filterNot        = 2
	filterEquality   = 3
	filterSubstrings = 4
	filterGreaterEq  = 5
	filterLessEq     = 6
	filterPresent    = 7
	filterApprox     = 8
)

// EncodeFilter converts a parsed RFC 4515 filter into its RFC 4511 BER
// form.
func EncodeFilter(n *filter.Node) (*ber.Packet, error) {
	switch n.Op {
	case filter.OpAnd, filter.OpOr:
		tag := byte(filterAnd)
		if n.Op == filter.OpOr {
			tag = filterOr
		}
		p := ber.NewContext(tag, true)
		for _, k := range n.Children {
			c, err := EncodeFilter(k)
			if err != nil {
				return nil, err
			}
			p.AddChild(c)
		}
		return p, nil
	case filter.OpNot:
		c, err := EncodeFilter(n.Children[0])
		if err != nil {
			return nil, err
		}
		return ber.NewContext(filterNot, true, c), nil
	case filter.OpEqual:
		return ava(filterEquality, n.Attr, n.Value), nil
	case filter.OpApprox:
		return ava(filterApprox, n.Attr, n.Value), nil
	case filter.OpGreaterEq:
		return ava(filterGreaterEq, n.Attr, n.Value), nil
	case filter.OpLessEq:
		return ava(filterLessEq, n.Attr, n.Value), nil
	case filter.OpPresent:
		return ber.NewContextString(filterPresent, n.Attr), nil
	case filter.OpSubstring:
		subs := ber.NewSequence()
		if n.Initial != "" {
			subs.AddChild(ber.NewContextString(0, n.Initial))
		}
		for _, a := range n.Any {
			subs.AddChild(ber.NewContextString(1, a))
		}
		if n.Final != "" {
			subs.AddChild(ber.NewContextString(2, n.Final))
		}
		return ber.NewContext(filterSubstrings, true,
			ber.NewOctetString(n.Attr), subs), nil
	default:
		return nil, fmt.Errorf("ldap: cannot encode filter op %v", n.Op)
	}
}

func ava(tag byte, attr, value string) *ber.Packet {
	return ber.NewContext(tag, true,
		ber.NewOctetString(attr), ber.NewOctetString(value))
}

// DecodeFilter converts the BER filter form back into the shared AST.
func DecodeFilter(p *ber.Packet) (*filter.Node, error) {
	if p.Class() != ber.ClassContext {
		return nil, fmt.Errorf("ldap: filter element with class %x", p.Class())
	}
	switch p.TagNumber() {
	case filterAnd, filterOr:
		op := filter.OpAnd
		if p.TagNumber() == filterOr {
			op = filter.OpOr
		}
		n := &filter.Node{Op: op}
		if len(p.Children) == 0 {
			return nil, fmt.Errorf("ldap: empty and/or filter")
		}
		for _, c := range p.Children {
			k, err := DecodeFilter(c)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, k)
		}
		return n, nil
	case filterNot:
		if len(p.Children) != 1 {
			return nil, fmt.Errorf("ldap: not filter with %d children", len(p.Children))
		}
		k, err := DecodeFilter(p.Children[0])
		if err != nil {
			return nil, err
		}
		return &filter.Node{Op: filter.OpNot, Children: []*filter.Node{k}}, nil
	case filterEquality, filterApprox, filterGreaterEq, filterLessEq:
		if len(p.Children) != 2 {
			return nil, fmt.Errorf("ldap: AVA with %d children", len(p.Children))
		}
		ops := map[byte]filter.Op{
			filterEquality: filter.OpEqual, filterApprox: filter.OpApprox,
			filterGreaterEq: filter.OpGreaterEq, filterLessEq: filter.OpLessEq,
		}
		return &filter.Node{
			Op:    ops[p.TagNumber()],
			Attr:  p.Children[0].Str(),
			Value: p.Children[1].Str(),
		}, nil
	case filterPresent:
		return &filter.Node{Op: filter.OpPresent, Attr: p.Str()}, nil
	case filterSubstrings:
		if len(p.Children) != 2 {
			return nil, fmt.Errorf("ldap: substrings with %d children", len(p.Children))
		}
		n := &filter.Node{Op: filter.OpSubstring, Attr: p.Children[0].Str()}
		for _, sub := range p.Children[1].Children {
			switch sub.TagNumber() {
			case 0:
				n.Initial = sub.Str()
			case 1:
				n.Any = append(n.Any, sub.Str())
			case 2:
				n.Final = sub.Str()
			default:
				return nil, fmt.Errorf("ldap: substring piece tag %d", sub.TagNumber())
			}
		}
		return n, nil
	default:
		return nil, fmt.Errorf("ldap: unknown filter tag %d", p.TagNumber())
	}
}

// EncodeAttrs builds the PartialAttributeList / AttributeList sequence.
func EncodeAttrs(attrs []EntryAttr) *ber.Packet {
	list := ber.NewSequence()
	for _, a := range attrs {
		vals := ber.NewSet()
		for _, v := range a.Vals {
			vals.AddChild(ber.NewOctetString(v))
		}
		list.AddChild(ber.NewSequence(ber.NewOctetString(a.Type), vals))
	}
	return list
}

// DecodeAttrs parses an attribute list sequence.
func DecodeAttrs(p *ber.Packet) ([]EntryAttr, error) {
	var out []EntryAttr
	for _, c := range p.Children {
		if len(c.Children) != 2 {
			return nil, fmt.Errorf("ldap: attribute with %d fields", len(c.Children))
		}
		a := EntryAttr{Type: c.Children[0].Str()}
		for _, v := range c.Children[1].Children {
			a.Vals = append(a.Vals, v.Str())
		}
		out = append(out, a)
	}
	return out, nil
}

// WrapMessage builds the LDAPMessage envelope.
func WrapMessage(id int64, op *ber.Packet) *ber.Packet {
	return ber.NewSequence(ber.NewInteger(id), op)
}

// UnwrapMessage splits an LDAPMessage into id and protocol op.
func UnwrapMessage(p *ber.Packet) (int64, *ber.Packet, error) {
	if len(p.Children) < 2 {
		return 0, nil, fmt.Errorf("ldap: message with %d fields", len(p.Children))
	}
	id, err := p.Children[0].Int()
	if err != nil {
		return 0, nil, err
	}
	op := p.Children[1]
	if op.Class() != ber.ClassApplication {
		return 0, nil, fmt.Errorf("ldap: protocol op class %x", op.Class())
	}
	return id, op, nil
}
