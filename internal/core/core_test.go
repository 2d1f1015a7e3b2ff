package core

import (
	"context"
	"errors"
	"testing"
)

func TestReference(t *testing.T) {
	r := NewReference("my.Class", "myFactory", "URL", "jini://host1")
	r.Add("extra", "data")
	if got, ok := r.Get("url"); !ok || got != "jini://host1" {
		t.Errorf("Get(url) = %q, %v", got, ok)
	}
	if _, ok := r.Get("nope"); ok {
		t.Error("Get(nope) should miss")
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestLinkRefReference(t *testing.T) {
	l := LinkRef{Target: "mem://s/a/b"}
	ref, err := l.Reference()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := ref.Get(AddrLink); got != "mem://s/a/b" {
		t.Errorf("link addr = %q", got)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	cases := []any{
		"hello",
		42,
		3.14,
		true,
		[]string{"a", "b"},
		map[string]string{"k": "v"},
		&Reference{Class: "c", Addrs: []RefAddr{{Type: "URL", Content: "x://y"}}},
		LinkRef{Target: "a/b"},
	}
	for _, v := range cases {
		b, err := Marshal(v)
		if err != nil {
			t.Fatalf("Marshal(%v): %v", v, err)
		}
		back, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("Unmarshal(%v): %v", v, err)
		}
		switch want := v.(type) {
		case *Reference:
			got, ok := back.(*Reference)
			if !ok || got.Class != want.Class || len(got.Addrs) != 1 || got.Addrs[0] != want.Addrs[0] {
				t.Errorf("reference round trip: %v -> %v", want, back)
			}
		case []string:
			got, ok := back.([]string)
			if !ok || len(got) != len(want) {
				t.Errorf("slice round trip: %v -> %v", want, back)
			}
		case map[string]string:
			got, ok := back.(map[string]string)
			if !ok || got["k"] != "v" {
				t.Errorf("map round trip: %v -> %v", want, back)
			}
		default:
			if back != v {
				t.Errorf("round trip: %v -> %v", v, back)
			}
		}
	}
}

func TestCodecUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("not gob")); err == nil {
		t.Error("expected error")
	}
}

type testRecord struct {
	Host string
	Port int
}

func TestCodecCustomType(t *testing.T) {
	RegisterType(testRecord{})
	b, err := Marshal(testRecord{Host: "h", Port: 8080})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := back.(testRecord); !ok || r.Host != "h" || r.Port != 8080 {
		t.Errorf("got %#v", back)
	}
}

func TestNamingError(t *testing.T) {
	err := Errf("lookup", "a/b", ErrNotFound)
	if !errors.Is(err, ErrNotFound) {
		t.Error("errors.Is failed")
	}
	var ne *NamingError
	if !errors.As(err, &ne) || ne.Op != "lookup" || ne.Name != "a/b" {
		t.Errorf("As failed: %v", err)
	}
	if Errf("x", "y", nil) != nil {
		t.Error("Errf(nil) != nil")
	}
	// CannotProceedError must pass through undecorated.
	cpe := &CannotProceedError{RemainingName: MustParseName("rest")}
	if got := Errf("lookup", "n", cpe); got != cpe {
		t.Errorf("CPE was wrapped: %v", got)
	}
}

type fakeObj struct{ tag string }

func TestObjectFactories(t *testing.T) {
	resetFactoriesForTest()
	defer resetFactoriesForTest()

	RegisterObjectFactory("tagger", func(_ context.Context, obj any, name Name, env map[string]any) (any, error) {
		if r, ok := obj.(*Reference); ok && r.Class == "fake" {
			content, _ := r.Get("tag")
			return fakeObj{tag: content}, nil
		}
		return nil, nil
	})

	// Named factory dispatch.
	ref := NewReference("fake", "tagger", "tag", "hello")
	out, err := GetObjectInstance(context.Background(), ref, Name{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := out.(fakeObj); !ok || f.tag != "hello" {
		t.Errorf("got %#v", out)
	}

	// Unnamed reference offered to all factories.
	ref2 := NewReference("fake", "", "tag", "anon")
	out, err = GetObjectInstance(context.Background(), ref2, Name{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f, ok := out.(fakeObj); !ok || f.tag != "anon" {
		t.Errorf("got %#v", out)
	}

	// Unknown named factory fails.
	ref3 := NewReference("fake", "missing", "tag", "x")
	if _, err := GetObjectInstance(context.Background(), ref3, Name{}, nil); err == nil {
		t.Error("expected missing-factory error")
	}

	// Non-reference passes through.
	out, err = GetObjectInstance(context.Background(), "plain", Name{}, nil)
	if err != nil || out != "plain" {
		t.Errorf("got %v, %v", out, err)
	}

	// Link reference resolves to a LinkRef.
	lref := NewReference("core.LinkRef", "", AddrLink, "target/name")
	out, err = GetObjectInstance(context.Background(), lref, Name{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l, ok := out.(LinkRef); !ok || l.Target != "target/name" {
		t.Errorf("got %#v", out)
	}
}

type refble struct{ url string }

func (r refble) Reference() (*Reference, error) {
	return NewContextReference(r.url), nil
}

func TestGetStateToBind(t *testing.T) {
	resetFactoriesForTest()
	defer resetFactoriesForTest()

	// Referenceable becomes its reference.
	st, attrs, err := GetStateToBind(refble{url: "mem://x"}, Name{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, ok := st.(*Reference)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if got, _ := ref.Get(AddrURL); got != "mem://x" {
		t.Errorf("url = %q", got)
	}
	if attrs != nil {
		t.Errorf("attrs = %v", attrs)
	}

	// State factory transformation.
	RegisterStateFactory(func(obj any, name Name, env map[string]any) (any, *Attributes, error) {
		if s, ok := obj.(fakeObj); ok {
			return "tagged:" + s.tag, NewAttributes("kind", "fake"), nil
		}
		return nil, nil, nil
	})
	st, attrs, err = GetStateToBind(fakeObj{tag: "t"}, Name{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st != "tagged:t" || attrs.GetFirst("kind") != "fake" {
		t.Errorf("got %v %v", st, attrs)
	}

	// Plain object passes through.
	st, _, err = GetStateToBind(99, Name{}, nil)
	if err != nil || st != 99 {
		t.Errorf("got %v %v", st, err)
	}
}

func TestProviderRegistry(t *testing.T) {
	resetSPIForTest()
	defer resetSPIForTest()

	called := false
	RegisterProvider("test", ProviderFunc(func(_ context.Context, rawURL string, env map[string]any) (Context, Name, error) {
		called = true
		u, err := ParseURLName(rawURL)
		if err != nil {
			return nil, Name{}, err
		}
		return nil, u.Path, nil
	}))
	if _, ok := LookupProvider("TEST"); !ok {
		t.Error("case-insensitive scheme lookup failed")
	}
	_, rest, err := OpenURL(context.Background(), "test://auth/a/b", nil)
	if err != nil || !called || rest.String() != "a/b" {
		t.Errorf("OpenURL: %v %v %v", rest, called, err)
	}
	if _, _, err := OpenURL(context.Background(), "zzz://x", nil); !errors.Is(err, ErrNoProvider) {
		t.Errorf("want ErrNoProvider, got %v", err)
	}
	if got := Schemes(); len(got) != 1 || got[0] != "test" {
		t.Errorf("Schemes = %v", got)
	}
}

func TestInitialContextNoFactory(t *testing.T) {
	resetSPIForTest()
	defer resetSPIForTest()
	ic := NewInitialContext(nil)
	if _, err := ic.Lookup(context.Background(), "plain/name"); !errors.Is(err, ErrNoInitialContext) {
		t.Errorf("want ErrNoInitialContext, got %v", err)
	}
	ic2 := NewInitialContext(map[string]any{EnvInitialFactory: "ghost"})
	if _, err := ic2.Lookup(context.Background(), "x"); err == nil {
		t.Error("unregistered initial factory should fail")
	}
}

func TestEnvIntAndString(t *testing.T) {
	env := map[string]any{
		"int": 400, "int64": int64(400), "string": "400",
		"junk": "4O0", "float": 400.0, "empty": "", "name": "relaxed",
	}
	for key, want := range map[string]int{
		"int": 400, "int64": 400, "string": 400,
		"junk": 7, "float": 7, "missing": 7,
	} {
		if got := EnvInt(env, key, 7); got != want {
			t.Errorf("EnvInt(%s) = %d, want %d", key, got, want)
		}
	}
	for key, want := range map[string]string{
		"name": "relaxed", "empty": "def", "int": "def", "missing": "def",
	} {
		if got := EnvString(env, key, "def"); got != want {
			t.Errorf("EnvString(%s) = %q, want %q", key, got, want)
		}
	}
}
