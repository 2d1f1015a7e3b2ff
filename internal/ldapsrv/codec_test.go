package ldapsrv

import (
	"bytes"
	"context"
	"encoding/hex"
	"net"
	"strings"
	"testing"
	"time"

	"gondi/internal/filter"
	"gondi/internal/ldapsrv/ber"
)

// goldenMessages is every message the client and the server send, with
// its bytes as recorded from the packet-tree encoder this package used
// before ber.Builder. They pin the wire format, and with it the byte
// counts the calibrated cost model charges Figure 7's LDAP requests and
// answers.
var goldenMessages = []struct {
	name string
	id   int64
	op   func(*ber.Builder)
	hex  string
}{
	{"bind", 1, bind("cn=admin,dc=example,dc=com", "secret"),
		"302c0201016027020103041a636e3d61646d696e2c64633d6578616d706c652c64633d636f6d8006736563726574"},
	{"bind-anonymous", 2, bind("", ""),
		"300c020102600702010304008000"},
	{"search-equality", 3, search(&searchRequest{baseDN: "dc=example,dc=com", filter: filter.MustParse("(cn=alice)")}),
		"30360201036331041164633d6578616d706c652c64633d636f6d0a01000a0100020100020100010100a30b0402636e04" +
			"05616c6963653000"},
	{"search-present", 4, search(&searchRequest{baseDN: "dc=example,dc=com", scope: ScopeSingleLevel, sizeLimit: 10,
		timeLimit: timeLimitSeconds(4500 * time.Millisecond), typesOnly: true, filter: filter.MustParse("(objectClass=*)"), attrs: []string{"cn", "mail"}}),
		"3040020104633b041164633d6578616d706c652c64633d636f6d0a01010a010002010a0201050101ff870b6f626a6563" +
			"74436c617373300a0402636e04046d61696c"},
	{"search-substrings", 5, subtree("(cn=al*i*ce)"),
		"303c0201056337041164633d6578616d706c652c64633d636f6d0a01020a0100020100020100010100a4110402636e30" +
			"0b8002616c810169820263653000"},
	{"search-substrings-any", 6, subtree("(cn=*mid*)"),
		"30360201066331041164633d6578616d706c652c64633d636f6d0a01020a0100020100020100010100a40b0402636e30" +
			"0581036d69643000"},
	{"search-greater-eq", 7, subtree("(age>=30)"),
		"3034020107632f041164633d6578616d706c652c64633d636f6d0a01020a0100020100020100010100a5090403616765" +
			"040233303000"},
	{"search-less-eq", 8, subtree("(age<=9)"),
		"3033020108632e041164633d6578616d706c652c64633d636f6d0a01020a0100020100020100010100a6080403616765" +
			"0401393000"},
	{"search-approx", 9, subtree("(cn~=al ice)"),
		"30370201096332041164633d6578616d706c652c64633d636f6d0a01020a0100020100020100010100a80c0402636e04" +
			"06616c206963653000"},
	{"search-and", 10, subtree("(&(a=1)(b=2))"),
		"303b02010a6336041164633d6578616d706c652c64633d636f6d0a01020a0100020100020100010100a010a306040161" +
			"040131a3060401620401323000"},
	{"search-or", 11, subtree("(|(cn=al*)(sn=*ce))"),
		"304302010b633e041164633d6578616d706c652c64633d636f6d0a01020a0100020100020100010100a118a40a040263" +
			"6e30048002616ca40a0402736e3004820263653000"},
	{"search-not", 12, subtree("(!(c=3))"),
		"303302010c632e041164633d6578616d706c652c64633d636f6d0a01020a0100020100020100010100a208a306040163" +
			"0401333000"},
	{"search-nested", 13, search(&searchRequest{baseDN: "dc=example,dc=com", scope: ScopeWholeSubtree, sizeLimit: 1000,
		filter: filter.MustParse("(&(objectClass=person)(|(cn=a*)(!(sn=b))))")}),
		"305b02010d6356041164633d6578616d706c652c64633d636f6d0a01020a0100020203e8020100010100a02fa315040b" +
			"6f626a656374436c6173730406706572736f6ea116a4090402636e3003800161a209a3070402736e0401623000"},
	{"search-id-128", 128, search(&searchRequest{baseDN: "dc=x", filter: filter.MustParse("(cn=a)")}),
		"3026020200806320040464633d780a01000a0100020100020100010100a3070402636e0401613000"},
	{"search-id-300", 300, search(&searchRequest{baseDN: "dc=x", filter: filter.MustParse("(cn=a)")}),
		"30260202012c6320040464633d780a01000a0100020100020100010100a3070402636e0401613000"},
	{"add", 20, add("cn=alice,ou=people,dc=example,dc=com", []EntryAttr{
		{Type: "objectClass", Vals: []string{"person", "top"}},
		{Type: "mail", Vals: []string{"alice@example.com"}},
		{Type: "empty"},
	}),
		"3073020114686e0424636e3d616c6963652c6f753d70656f706c652c64633d6578616d706c652c64633d636f6d304630" +
			"1c040b6f626a656374436c617373310d0406706572736f6e0403746f70301b04046d61696c31130411616c6963654065" +
			"78616d706c652e636f6d30090405656d7074793100"},
	{"add-no-attrs", 21, add("cn=bob,dc=x", nil),
		"3014020115680f040b636e3d626f622c64633d783000"},
	{"delete", 22, del("cn=alice,ou=people,dc=example,dc=com"),
		"30290201164a24636e3d616c6963652c6f753d70656f706c652c64633d6578616d706c652c64633d636f6d"},
	{"delete-op-len-127", 23, del(strings.Repeat("d", 127)),
		"3081840201174a7f64646464646464646464646464646464646464646464646464646464646464646464646464646464" +
			"646464646464646464646464646464646464646464646464646464646464646464646464646464646464646464646464" +
			"646464646464646464646464646464646464646464646464646464646464646464646464646464"},
	{"delete-op-len-128", 24, del(strings.Repeat("d", 128)),
		"3081860201184a8180646464646464646464646464646464646464646464646464646464646464646464646464646464" +
			"646464646464646464646464646464646464646464646464646464646464646464646464646464646464646464646464" +
			"6464646464646464646464646464646464646464646464646464646464646464646464646464646464"},
	{"delete-op-len-300", 25, del(strings.Repeat("d", 300)),
		"308201330201194a82012c64646464646464646464646464646464646464646464646464646464646464646464646464" +
			"646464646464646464646464646464646464646464646464646464646464646464646464646464646464646464646464" +
			"646464646464646464646464646464646464646464646464646464646464646464646464646464646464646464646464" +
			"646464646464646464646464646464646464646464646464646464646464646464646464646464646464646464646464" +
			"646464646464646464646464646464646464646464646464646464646464646464646464646464646464646464646464" +
			"646464646464646464646464646464646464646464646464646464646464646464646464646464646464646464646464" +
			"6464646464646464646464646464646464646464646464"},
	{"delete-msg-len-127", 26, del(strings.Repeat("m", 122)),
		"307f02011a4a7a6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d" +
			"6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d" +
			"6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d"},
	{"delete-msg-len-128", 27, del(strings.Repeat("m", 123)),
		"30818002011b4a7b6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d" +
			"6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d" +
			"6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d6d"},
	{"modify", 28, modify("cn=alice,dc=x", []ModifyChange{
		{Op: ModifyAdd, Attr: EntryAttr{Type: "mail", Vals: []string{"a@x", "b@x"}}},
		{Op: ModifyDelete, Attr: EntryAttr{Type: "sn"}},
		{Op: ModifyReplace, Attr: EntryAttr{Type: "cn", Vals: []string{"alice"}}},
	}),
		"305002011c664b040d636e3d616c6963652c64633d78303a30170a0100301204046d61696c310a040361407804036240" +
			"78300b0a010130060402736e310030120a0102300d0402636e31070405616c696365"},
	{"modify-no-changes", 29, modify("cn=alice,dc=x", nil),
		"301602011d6611040d636e3d616c6963652c64633d783000"},
	{"modifydn", 30, modifyDN("cn=alice,dc=x", "cn=alicia", true),
		"302202011e6c1d040d636e3d616c6963652c64633d780409636e3d616c696369610101ff"},
	{"modifydn-keep", 31, modifyDN("cn=alice,dc=x", "cn=alicia", false),
		"302202011f6c1d040d636e3d616c6963652c64633d780409636e3d616c69636961010100"},
	{"compare", 32, compare("cn=alice,dc=x", "mail", "a@x"),
		"30210201206e1c040d636e3d616c6963652c64633d78300b04046d61696c0403614078"},
	{"unbind", 33, unbind,
		"30050201214200"},
	{"bind-response", 1, result(AppBindResponse, Result{Code: ResultSuccess}),
		"300c02010161070a010004000400"},
	{"bind-response-invalid", 1, result(AppBindResponse, Result{Code: ResultInvalidCredentials}),
		"300c02010161070a013104000400"},
	{"search-entry", 3, entry(Entry{DN: "cn=alice,dc=example,dc=com", Attrs: []EntryAttr{
		{Type: "cn", Vals: []string{"alice"}},
		{Type: "objectClass", Vals: []string{"person", "top"}},
		{Type: "mail", Vals: []string{"alice@example.com"}},
	}}),
		"306d0201036468041a636e3d616c6963652c64633d6578616d706c652c64633d636f6d304a300d0402636e3107040561" +
			"6c696365301c040b6f626a656374436c617373310d0406706572736f6e0403746f70301b04046d61696c31130411616c" +
			"696365406578616d706c652e636f6d"},
	{"search-entry-types-only", 3, entry(Entry{DN: "cn=alice,dc=x", Attrs: []EntryAttr{{Type: "cn"}, {Type: "mail"}}}),
		"30280201036423040d636e3d616c6963652c64633d78301230060402636e3100300804046d61696c3100"},
	{"search-entry-long", 3, entry(Entry{DN: "cn=long,dc=x", Attrs: []EntryAttr{{Type: "description", Vals: []string{strings.Repeat("v", 300)}}}}),
		"3082015e02010364820157040c636e3d6c6f6e672c64633d783082014530820141040b6465736372697074696f6e3182" +
			"01300482012c767676767676767676767676767676767676767676767676767676767676767676767676767676767676" +
			"767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676" +
			"767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676" +
			"767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676" +
			"767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676" +
			"767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676" +
			"767676767676767676767676767676767676"},
	{"search-done", 3, result(AppSearchDone, Result{Code: ResultSuccess}),
		"300c02010365070a010004000400"},
	{"search-done-size-limit", 4, result(AppSearchDone, Result{Code: ResultSizeLimitExceeded, Message: "size limit exceeded"}),
		"301f020104651a0a01040400041373697a65206c696d6974206578636565646564"},
	{"add-response", 20, result(AppAddResponse, Result{Code: ResultNoSuchObject, MatchedDN: "dc=example,dc=com", Message: "parent does not exist"}),
		"3032020114692d0a0120041164633d6578616d706c652c64633d636f6d0415706172656e7420646f6573206e6f742065" +
			"78697374"},
	{"delete-response", 22, result(AppDelResponse, Result{Code: ResultSuccess}),
		"300c0201166b070a010004000400"},
	{"modify-response", 28, result(AppModifyResponse, Result{Code: ResultSuccess}),
		"300c02011c67070a010004000400"},
	{"modifydn-response", 30, result(AppModifyDNResponse, Result{Code: ResultEntryAlreadyExists}),
		"300c02011e6d070a014404000400"},
	{"compare-true", 32, result(AppCompareResponse, Result{Code: ResultCompareTrue}),
		"300c0201206f070a010604000400"},
	{"compare-false", 32, result(AppCompareResponse, Result{Code: ResultCompareFalse}),
		"300c0201206f070a010504000400"},
	{"busy-search-done", 9, result(AppSearchDone, Result{Code: ResultBusy, Message: "retry-after-ms=25"}),
		"301d02010965180a01330400041172657472792d61667465722d6d733d3235"},
	{"busy-add-response", 9, result(AppAddResponse, Result{Code: ResultBusy, Message: "retry-after-ms=25"}),
		"301d02010969180a01330400041172657472792d61667465722d6d733d3235"},
	{"unsupported", 9, result(AppSearchDone, Result{Code: ResultProtocolError, Message: "unsupported operation"}),
		"3021020109651c0a010204000415756e737570706f72746564206f7065726174696f6e"},
	{"result-message-len-300", 9, result(AppSearchDone, Result{Code: ResultOther, Message: strings.Repeat("v", 300)}),
		"3082013c020109658201350a015004000482012c76767676767676767676767676767676767676767676767676767676" +
			"767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676" +
			"767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676" +
			"767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676" +
			"767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676" +
			"767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676767676" +
			"7676767676767676767676767676767676767676767676767676767676767676"},
}

// Each of these returns the appender of one protocol op, its arguments
// fixed when the table is built.

func bind(dn, password string) func(*ber.Builder) {
	return func(b *ber.Builder) { appendBindRequest(b, dn, password) }
}

func search(q *searchRequest) func(*ber.Builder) {
	return func(b *ber.Builder) { appendSearchRequest(b, q) }
}

// subtree searches the whole example subtree with filter f.
func subtree(f string) func(*ber.Builder) {
	return search(&searchRequest{baseDN: "dc=example,dc=com", scope: ScopeWholeSubtree, filter: filter.MustParse(f)})
}

func add(dn string, attrs []EntryAttr) func(*ber.Builder) {
	return func(b *ber.Builder) { appendAddRequest(b, dn, attrs) }
}

func del(dn string) func(*ber.Builder) {
	return func(b *ber.Builder) { appendDelRequest(b, dn) }
}

func modify(dn string, changes []ModifyChange) func(*ber.Builder) {
	return func(b *ber.Builder) { appendModifyRequest(b, dn, changes) }
}

func modifyDN(dn, newRDN string, deleteOldRDN bool) func(*ber.Builder) {
	return func(b *ber.Builder) { appendModifyDNRequest(b, dn, newRDN, deleteOldRDN) }
}

func compare(dn, attrType, value string) func(*ber.Builder) {
	return func(b *ber.Builder) { appendCompareRequest(b, dn, attrType, value) }
}

func unbind(b *ber.Builder) { b.Str(ber.ClassApplication|AppUnbindRequest, "") }

func entry(e Entry) func(*ber.Builder) {
	return func(b *ber.Builder) { appendEntry(b, &e) }
}

// result returns the appender of an LDAPResult op tagged tag.
func result(tag byte, r Result) func(*ber.Builder) {
	return func(b *ber.Builder) { appendResult(b, tag, r) }
}

func TestLDAPGoldenBytes(t *testing.T) {
	for _, g := range goldenMessages {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := encodeMessage(g.id, g.op); !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %x\nwant %x", g.name, got, want)
		}
		// The reader accepts each one and re-encodes it unchanged.
		if back, err := reencode(want); err != nil || !bytes.Equal(back, want) {
			t.Errorf("%s: re-encoded to %x (%v)", g.name, back, err)
		}
	}
}

// TestLDAPMessageAllocs gates the codec's cost: encoding any message the
// client or the server sends takes at most 2 allocations (its buffer, and
// one growth past 256 bytes), and a base-object search round trip over
// loopback, client and server together, at most 100.
func TestLDAPMessageAllocs(t *testing.T) {
	for _, g := range goldenMessages {
		if n := testing.AllocsPerRun(100, func() { encodeMessage(g.id, g.op) }); n > 2 {
			t.Errorf("%s: encoding costs %.0f allocations, want <= 2", g.name, n)
		}
	}
	s, err := NewServer("127.0.0.1:0", ServerConfig{BaseDN: "dc=x"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if r := s.DIT().Add("cn=alice,dc=x", []EntryAttr{
		{Type: "objectClass", Vals: []string{"person", "inetOrgPerson"}},
		{Type: "mail", Vals: []string{"alice@example.com"}},
	}); r.Code != ResultSuccess {
		t.Fatal(r)
	}
	c, err := Dial(s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	opts := &SearchOptions{Scope: ScopeBaseObject}
	n := testing.AllocsPerRun(200, func() {
		if es, err := c.Search(ctx, "cn=alice,dc=x", "(objectClass=*)", opts); err != nil || len(es) != 1 || len(es[0].Attrs) != 3 {
			t.Fatalf("search: %v %+v", err, es)
		}
	})
	t.Logf("base-object search round trip: %.0f allocations", n)
	if n > 100 {
		t.Errorf("base-object search round trip costs %.0f allocations, want <= 100", n)
	}
}

// notChain returns n nested not filters around (objectClass=*), built as
// bytes from the inside out, so each level's length is known when its
// header is written.
func notChain(n int) []byte {
	inner := append([]byte{ber.ClassContext | filterTag(filter.OpPresent), 11}, "objectClass"...)
	sizes := make([]int, n+1) // sizes[i]: the element i levels out
	sizes[0] = len(inner)
	for i := 1; i <= n; i++ {
		sizes[i] = sizes[i-1] + len(header(0, sizes[i-1]))
	}
	out := make([]byte, 0, sizes[n])
	for i := n; i >= 1; i-- {
		out = append(out, header(filterSet|filterTag(filter.OpNot), sizes[i-1])...)
	}
	return append(out, inner...)
}

// header returns a BER element header: tag, then content length n in
// minimal form.
func header(tag byte, n int) []byte {
	switch {
	case n < 0x80:
		return []byte{tag, byte(n)}
	case n < 1<<8:
		return []byte{tag, 0x81, byte(n)}
	case n < 1<<16:
		return []byte{tag, 0x82, byte(n >> 8), byte(n)}
	default:
		return []byte{tag, 0x83, byte(n >> 16), byte(n >> 8), byte(n)}
	}
}

// A filter nested past maxFilterDepth is refused with protocolError, at
// once and without reading the rest of it, and the connection serves the
// next search as usual.
func TestSearchFilterDepthBound(t *testing.T) {
	s, err := NewServer("127.0.0.1:0", ServerConfig{BaseDN: "dc=x"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fr := frameReader{r: conn}
	roundTrip := func(msg []byte) [][]byte {
		t.Helper()
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		var ops [][]byte
		for {
			frame, err := fr.read()
			if err != nil {
				t.Fatal(err)
			}
			_, op, err := splitMessage(frame)
			if err != nil {
				t.Fatal(err)
			}
			if ops = append(ops, op); opNum(op) == AppSearchDone {
				return ops
			}
		}
	}

	// SearchRequest{baseDN "dc=x", base scope, ..., filter, no attrs}
	// around a 200 000-deep filter of about 1 MB.
	var pre ber.Builder
	pre.Str(ber.TagOctetString, "dc=x")
	pre.Int(ber.TagEnumerated, ScopeBaseObject)
	pre.Int(ber.TagEnumerated, 0)
	pre.Int(ber.TagInteger, 0)
	pre.Int(ber.TagInteger, 0)
	pre.Bool(ber.TagBoolean, false)
	body := append(append(pre.Bytes(), notChain(200000)...), ber.Sequence, 0)
	op := append(header(appTag(AppSearchRequest), len(body)), body...)
	content := append([]byte{ber.TagInteger, 1, 1}, op...)
	deep := append(header(ber.Sequence, len(content)), content...)

	start := time.Now()
	ops := roundTrip(deep)
	elapsed := time.Since(start)
	res, err := readResult(ops[len(ops)-1])
	if err != nil || res.Code != ResultProtocolError || len(ops) != 1 {
		t.Fatalf("deep filter (%d bytes): %d ops, %+v, %v", len(deep), len(ops), res, err)
	}
	if elapsed > time.Second {
		t.Errorf("deep filter refused after %v, want < 1s", elapsed)
	}
	t.Logf("%d-byte message refused in %v: %s", len(deep), elapsed, res.Message)

	ops = roundTrip(encodeMessage(2, search(&searchRequest{baseDN: "dc=x", filter: filter.MustParse("(objectClass=*)")})))
	if res, err := readResult(ops[len(ops)-1]); err != nil || res.Code != ResultSuccess || len(ops) != 2 {
		t.Fatalf("search after the deep filter: %d ops, %+v, %v", len(ops), res, err)
	}
}
