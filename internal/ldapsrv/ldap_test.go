package ldapsrv

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gondi/internal/costmodel"
	"gondi/internal/filter"
	"gondi/internal/ldapsrv/ber"
)

func TestFilterBERRoundTrip(t *testing.T) {
	cases := []string{
		"(cn=alice)",
		"(objectClass=*)",
		"(&(a=1)(b=2)(!(c=3)))",
		"(|(cn=al*)(cn=*ce)(cn=a*b*c))",
		"(age>=30)",
		"(age<=9)",
		"(cn~=al ice)",
		"(cn=*mid*)",
	}
	for _, s := range cases {
		n := filter.MustParse(s)
		back, err := filterRoundTrip(n)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if !n.Equal(back) {
			t.Errorf("%q -> %q", s, back.String())
		}
	}
}

// filterRoundTrip appends n and reads it back.
func filterRoundTrip(n *filter.Node) (*filter.Node, error) {
	var b ber.Builder
	appendFilter(&b, n)
	r := ber.NewReader(b.Bytes())
	back := readFilter(&r, 1)
	r.End()
	return back, r.Err()
}

func TestFilterBERRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	attrs := []string{"cn", "sn", "objectClass"}
	var gen func(depth int) *filter.Node
	gen = func(depth int) *filter.Node {
		if depth == 0 || r.Intn(2) == 0 {
			switch r.Intn(4) {
			case 0:
				return &filter.Node{Op: filter.OpEqual, Attr: attrs[r.Intn(3)], Value: fmt.Sprint(r.Intn(100))}
			case 1:
				return &filter.Node{Op: filter.OpPresent, Attr: attrs[r.Intn(3)]}
			case 2:
				return &filter.Node{Op: filter.OpGreaterEq, Attr: attrs[r.Intn(3)], Value: fmt.Sprint(r.Intn(100))}
			default:
				return &filter.Node{Op: filter.OpSubstring, Attr: attrs[r.Intn(3)], Initial: "i", Any: []string{"a"}, Final: "f"}
			}
		}
		n := &filter.Node{Op: filter.OpAnd}
		if r.Intn(2) == 0 {
			n.Op = filter.OpOr
		}
		for i := 0; i <= r.Intn(3); i++ {
			n.Children = append(n.Children, gen(depth-1))
		}
		return n
	}
	for i := 0; i < 300; i++ {
		n := gen(3)
		back, err := filterRoundTrip(n)
		if err != nil || !n.Equal(back) {
			t.Fatalf("iter %d: %v vs %v (%v)", i, n, back, err)
		}
	}
}

func TestDITAddGetDelete(t *testing.T) {
	d, err := NewDIT("dc=emory,dc=edu")
	if err != nil {
		t.Fatal(err)
	}
	if r := d.Add("ou=people,dc=emory,dc=edu", []EntryAttr{{Type: "objectClass", Vals: []string{"organizationalUnit"}}}); r.Code != ResultSuccess {
		t.Fatalf("add ou: %+v", r)
	}
	if r := d.Add("cn=alice,ou=people,dc=emory,dc=edu", []EntryAttr{
		{Type: "objectClass", Vals: []string{"person"}},
		{Type: "mail", Vals: []string{"alice@emory.edu"}},
	}); r.Code != ResultSuccess {
		t.Fatalf("add alice: %+v", r)
	}
	// Implicit RDN attribute.
	e, ok := d.Get("cn=alice,ou=people,dc=emory,dc=edu")
	if !ok || e.GetFirst("cn") != "alice" {
		t.Errorf("entry = %+v", e)
	}
	// Duplicate add.
	if r := d.Add("cn=alice,ou=people,dc=emory,dc=edu", nil); r.Code != ResultEntryAlreadyExists {
		t.Errorf("dup add: %+v", r)
	}
	// Orphan add.
	if r := d.Add("cn=bob,ou=ghost,dc=emory,dc=edu", nil); r.Code != ResultNoSuchObject {
		t.Errorf("orphan add: %+v", r)
	}
	// Outside base.
	if r := d.Add("cn=x,dc=gatech,dc=edu", nil); r.Code != ResultNoSuchObject {
		t.Errorf("outside add: %+v", r)
	}
	// Delete non-leaf.
	if r := d.Delete("ou=people,dc=emory,dc=edu"); r.Code != ResultNotAllowedOnNonLea {
		t.Errorf("non-leaf delete: %+v", r)
	}
	if r := d.Delete("cn=alice,ou=people,dc=emory,dc=edu"); r.Code != ResultSuccess {
		t.Errorf("delete: %+v", r)
	}
	if r := d.Delete("cn=alice,ou=people,dc=emory,dc=edu"); r.Code != ResultNoSuchObject {
		t.Errorf("re-delete: %+v", r)
	}
}

func TestDITModify(t *testing.T) {
	d, _ := NewDIT("dc=x")
	d.Add("cn=a,dc=x", []EntryAttr{{Type: "tag", Vals: []string{"1", "2"}}})
	r := d.Modify("cn=a,dc=x", []ModifyChange{
		{Op: ModifyAdd, Attr: EntryAttr{Type: "mail", Vals: []string{"a@x"}}},
		{Op: ModifyDelete, Attr: EntryAttr{Type: "tag", Vals: []string{"1"}}},
	})
	if r.Code != ResultSuccess {
		t.Fatalf("modify: %+v", r)
	}
	e, _ := d.Get("cn=a,dc=x")
	if e.GetFirst("mail") != "a@x" || !reflect.DeepEqual(e.Get("tag"), []string{"2"}) {
		t.Errorf("entry = %+v", e)
	}
	// Replace.
	d.Modify("cn=a,dc=x", []ModifyChange{{Op: ModifyReplace, Attr: EntryAttr{Type: "tag", Vals: []string{"9"}}}})
	e, _ = d.Get("cn=a,dc=x")
	if !reflect.DeepEqual(e.Get("tag"), []string{"9"}) {
		t.Errorf("after replace: %+v", e)
	}
	// Delete of a missing attribute fails atomically (mail survives).
	r = d.Modify("cn=a,dc=x", []ModifyChange{
		{Op: ModifyDelete, Attr: EntryAttr{Type: "mail"}},
		{Op: ModifyDelete, Attr: EntryAttr{Type: "ghost"}},
	})
	if r.Code == ResultSuccess {
		t.Fatal("bad batch should fail")
	}
	e, _ = d.Get("cn=a,dc=x")
	if e.GetFirst("mail") != "a@x" {
		t.Error("failed batch partially applied")
	}
	// Modify of missing entry.
	if r := d.Modify("cn=zz,dc=x", nil); r.Code != ResultNoSuchObject {
		t.Errorf("missing modify: %+v", r)
	}
}

func TestDITModifyDN(t *testing.T) {
	d, _ := NewDIT("dc=x")
	d.Add("cn=old,dc=x", []EntryAttr{{Type: "mail", Vals: []string{"m"}}})
	if r := d.ModifyDN("cn=old,dc=x", "cn=new", true); r.Code != ResultSuccess {
		t.Fatalf("modifyDN: %+v", r)
	}
	if _, ok := d.Get("cn=old,dc=x"); ok {
		t.Error("old DN still present")
	}
	e, ok := d.Get("cn=new,dc=x")
	if !ok || e.GetFirst("cn") != "new" || e.GetFirst("mail") != "m" {
		t.Errorf("entry = %+v ok=%v", e, ok)
	}
	// Rename onto existing.
	d.Add("cn=taken,dc=x", nil)
	if r := d.ModifyDN("cn=new,dc=x", "cn=taken", true); r.Code != ResultEntryAlreadyExists {
		t.Errorf("conflict rename: %+v", r)
	}
}

func TestDITSearchScopes(t *testing.T) {
	d, _ := NewDIT("dc=x")
	d.Add("ou=a,dc=x", []EntryAttr{{Type: "kind", Vals: []string{"ou"}}})
	d.Add("cn=1,ou=a,dc=x", []EntryAttr{{Type: "kind", Vals: []string{"leaf"}}})
	d.Add("cn=2,ou=a,dc=x", []EntryAttr{{Type: "kind", Vals: []string{"leaf"}}})

	f := filter.MustParse("(kind=*)")
	es, r := d.Search("dc=x", ScopeWholeSubtree, f, 0, 0, nil, false)
	if r.Code != ResultSuccess || len(es) != 3 {
		t.Fatalf("subtree: %d, %+v", len(es), r)
	}
	es, _ = d.Search("dc=x", ScopeSingleLevel, f, 0, 0, nil, false)
	if len(es) != 1 || es[0].DN != "ou=a,dc=x" {
		t.Errorf("one-level: %+v", es)
	}
	es, _ = d.Search("ou=a,dc=x", ScopeBaseObject, f, 0, 0, nil, false)
	if len(es) != 1 || es[0].GetFirst("kind") != "ou" {
		t.Errorf("base: %+v", es)
	}
	// Size limit.
	es, r = d.Search("dc=x", ScopeWholeSubtree, f, 2, 0, nil, false)
	if r.Code != ResultSizeLimitExceeded || len(es) != 2 {
		t.Errorf("size limit: %d, %+v", len(es), r)
	}
	// Missing base.
	_, r = d.Search("ou=ghost,dc=x", ScopeBaseObject, f, 0, 0, nil, false)
	if r.Code != ResultNoSuchObject {
		t.Errorf("missing base: %+v", r)
	}
	// Attribute selection and typesOnly.
	d.Modify("cn=1,ou=a,dc=x", []ModifyChange{{Op: ModifyAdd, Attr: EntryAttr{Type: "mail", Vals: []string{"m"}}}})
	es, _ = d.Search("cn=1,ou=a,dc=x", ScopeBaseObject, nil, 0, 0, []string{"mail"}, false)
	if len(es) != 1 || len(es[0].Attrs) != 1 || es[0].GetFirst("mail") != "m" {
		t.Errorf("attr select: %+v", es)
	}
	es, _ = d.Search("cn=1,ou=a,dc=x", ScopeBaseObject, nil, 0, 0, nil, true)
	if len(es[0].Get("mail")) != 0 {
		t.Errorf("typesOnly returned values: %+v", es[0])
	}
}

func newLDAPPair(t *testing.T, cfg ServerConfig) (*Server, *Conn) {
	t.Helper()
	s, err := NewServer("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := Dial(s.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return s, c
}

func TestServerEndToEnd(t *testing.T) {
	ctx := context.Background()
	_, c := newLDAPPair(t, ServerConfig{BaseDN: "dc=emory,dc=edu"})
	if err := c.Bind(ctx, "", ""); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(ctx, "ou=people,dc=emory,dc=edu", []EntryAttr{
		{Type: "objectClass", Vals: []string{"organizationalUnit"}},
	}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alice", "bob", "carol"} {
		if err := c.Add(ctx, "cn="+name+",ou=people,dc=emory,dc=edu", []EntryAttr{
			{Type: "objectClass", Vals: []string{"person"}},
			{Type: "mail", Vals: []string{name + "@emory.edu"}},
		}); err != nil {
			t.Fatal(err)
		}
	}
	es, err := c.Search(ctx, "dc=emory,dc=edu", "(objectClass=person)", nil)
	if err != nil || len(es) != 3 {
		t.Fatalf("search: %d, %v", len(es), err)
	}
	es, err = c.Search(ctx, "dc=emory,dc=edu", "(cn=ali*)", nil)
	if err != nil || len(es) != 1 || es[0].GetFirst("mail") != "alice@emory.edu" {
		t.Fatalf("substring search: %+v, %v", es, err)
	}
	// Modify and verify.
	if err := c.Modify(ctx, "cn=alice,ou=people,dc=emory,dc=edu", []ModifyChange{
		{Op: ModifyReplace, Attr: EntryAttr{Type: "mail", Vals: []string{"new@emory.edu"}}},
	}); err != nil {
		t.Fatal(err)
	}
	ok, err := c.Compare(ctx, "cn=alice,ou=people,dc=emory,dc=edu", "mail", "new@emory.edu")
	if err != nil || !ok {
		t.Fatalf("compare: %v %v", ok, err)
	}
	ok, _ = c.Compare(ctx, "cn=alice,ou=people,dc=emory,dc=edu", "mail", "old@emory.edu")
	if ok {
		t.Error("compare false positive")
	}
	// ModifyDN.
	if err := c.ModifyDN(ctx, "cn=carol,ou=people,dc=emory,dc=edu", "cn=caroline", true); err != nil {
		t.Fatal(err)
	}
	es, err = c.Search(ctx, "dc=emory,dc=edu", "(cn=caroline)", nil)
	if err != nil || len(es) != 1 {
		t.Fatalf("after rename: %+v, %v", es, err)
	}
	// Delete.
	if err := c.Delete(ctx, "cn=bob,ou=people,dc=emory,dc=edu"); err != nil {
		t.Fatal(err)
	}
	var re *ResultError
	err = c.Delete(ctx, "cn=bob,ou=people,dc=emory,dc=edu")
	if !errors.As(err, &re) || re.Result.Code != ResultNoSuchObject {
		t.Errorf("re-delete: %v", err)
	}
}

func TestServerAuth(t *testing.T) {
	ctx := context.Background()
	s, c := newLDAPPair(t, ServerConfig{
		BaseDN: "dc=x", RootDN: "cn=admin,dc=x", RootPassword: "secret",
		RequireAuthForWrite: true,
	})
	_ = s
	// Anonymous write rejected.
	err := c.Add(ctx, "cn=a,dc=x", nil)
	var re *ResultError
	if !errors.As(err, &re) || re.Result.Code != ResultInsufficientAccess {
		t.Fatalf("anon write: %v", err)
	}
	// Bad credentials.
	if err := c.Bind(ctx, "cn=admin,dc=x", "wrong"); err == nil {
		t.Fatal("bad bind accepted")
	}
	// Root bind then write.
	if err := c.Bind(ctx, "cn=admin,dc=x", "secret"); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(ctx, "cn=a,dc=x", []EntryAttr{{Type: "userPassword", Vals: []string{"pw"}}}); err != nil {
		t.Fatal(err)
	}
	// Bind as the new entry via its userPassword.
	c2, err := Dial(s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Bind(ctx, "cn=a,dc=x", "pw"); err != nil {
		t.Fatalf("entry bind: %v", err)
	}
	if err := c2.Bind(ctx, "cn=a,dc=x", "nope"); err == nil {
		t.Fatal("wrong entry password accepted")
	}
}

func TestServerSizeLimit(t *testing.T) {
	ctx := context.Background()
	_, c := newLDAPPair(t, ServerConfig{BaseDN: "dc=x"})
	for i := 0; i < 10; i++ {
		if err := c.Add(ctx, fmt.Sprintf("cn=e%d,dc=x", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	es, err := c.Search(ctx, "dc=x", "(cn=e*)", &SearchOptions{Scope: ScopeWholeSubtree, SizeLimit: 4})
	var re *ResultError
	if !errors.As(err, &re) || re.Result.Code != ResultSizeLimitExceeded {
		t.Fatalf("err = %v", err)
	}
	if len(es) != 4 {
		t.Errorf("partial results = %d", len(es))
	}
}

func TestServerConcurrentClients(t *testing.T) {
	ctx := context.Background()
	s, seed := newLDAPPair(t, ServerConfig{BaseDN: "dc=x"})
	if err := seed.Add(ctx, "ou=load,dc=x", nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(s.Addr(), 2*time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 30; i++ {
				dn := fmt.Sprintf("cn=g%d-%d,ou=load,dc=x", g, i)
				if err := c.Add(ctx, dn, []EntryAttr{{Type: "seq", Vals: []string{fmt.Sprint(i)}}}); err != nil {
					t.Errorf("add %s: %v", dn, err)
					return
				}
				if _, err := c.Search(ctx, dn, "(seq=*)", &SearchOptions{Scope: ScopeBaseObject}); err != nil {
					t.Errorf("search %s: %v", dn, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	es, err := seed.Search(ctx, "ou=load,dc=x", "(seq=*)", nil)
	if err != nil || len(es) != 180 {
		t.Errorf("total = %d, %v", len(es), err)
	}
}

func TestServerReadThrottle(t *testing.T) {
	ctx := context.Background()
	if testing.Short() {
		t.Skip("timing test")
	}
	_, c := newLDAPPair(t, ServerConfig{
		BaseDN: "dc=x",
		Costs:  &costmodel.Costs{Throttle: costmodel.NewRateLimiter(50, 1)}, // 50 reads/s
	})
	if err := c.Add(ctx, "cn=a,dc=x", nil); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 15; i++ {
		if _, err := c.Search(ctx, "cn=a,dc=x", "(cn=*)", &SearchOptions{Scope: ScopeBaseObject}); err != nil {
			t.Fatal(err)
		}
	}
	if e := time.Since(start); e < 200*time.Millisecond {
		t.Errorf("15 throttled reads took only %v", e)
	}
}

func TestEntryHelpers(t *testing.T) {
	e := Entry{DN: "cn=a", Attrs: []EntryAttr{{Type: "Mail", Vals: []string{"x", "y"}}}}
	if e.GetFirst("mail") != "x" || len(e.Get("MAIL")) != 2 {
		t.Error("case-insensitive Get failed")
	}
	if e.GetFirst("none") != "" {
		t.Error("missing attr")
	}
	if !strings.Contains(e.String(), "cn=a") {
		t.Error("String")
	}
}

func TestDITSearchTimeLimit(t *testing.T) {
	d, err := NewDIT("dc=x")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if r := d.Add(fmt.Sprintf("cn=e%d,dc=x", i),
			[]EntryAttr{{Type: "objectClass", Vals: []string{"top"}}}); r.Code != ResultSuccess {
			t.Fatal(r)
		}
	}
	f, err := filter.Parse("(cn=e*)")
	if err != nil {
		t.Fatal(err)
	}
	// A limit that is already past when the walk finishes: the result
	// code flips to timeLimitExceeded and the entries gathered so far
	// come back as partial results.
	entries, res := d.Search("dc=x", ScopeWholeSubtree, f, 0, time.Nanosecond, nil, false)
	if res.Code != ResultTimeLimitExceeded {
		t.Fatalf("code = %d, want timeLimitExceeded", res.Code)
	}
	if len(entries) == 0 {
		t.Error("partial results dropped")
	}
	// No limit: clean success.
	if _, res := d.Search("dc=x", ScopeWholeSubtree, f, 0, 0, nil, false); res.Code != ResultSuccess {
		t.Fatalf("unlimited search code = %d", res.Code)
	}
}
