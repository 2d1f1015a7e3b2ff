package ldapsrv

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gondi/internal/filter"
)

// scanSearch is the full-scan Search the children index replaced, kept as
// the oracle: it tests every entry of the flat index for containment by
// normalizing its DN, and knows nothing of parent or children links.
func scanSearch(d *DIT, baseDN string, scope int, f *filter.Node, sizeLimit int, attrs []string, typesOnly bool) ([]Entry, Result) {
	base, err := ParseDN(baseDN)
	if err != nil {
		return nil, Result{Code: ResultInvalidDNSyntax, Message: err.Error()}
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if _, ok := d.entries[base.Normalize()]; !ok {
		return nil, Result{Code: ResultNoSuchObject, MatchedDN: d.deepestExistingLocked(base).String()}
	}
	type hit struct {
		depth int
		key   string
		e     *ditEntry
	}
	var hits []hit
	for key, e := range d.entries {
		if !e.dn.IsUnder(base) {
			continue
		}
		depth := e.dn.Depth(base)
		switch scope {
		case ScopeBaseObject:
			if depth != 0 {
				continue
			}
		case ScopeSingleLevel:
			if depth != 1 {
				continue
			}
		case ScopeWholeSubtree:
		default:
			return nil, Result{Code: ResultProtocolError, Message: "bad scope"}
		}
		if f == nil || f.Matches(e.values()) {
			hits = append(hits, hit{depth: depth, key: key, e: e})
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].depth != hits[j].depth {
			return hits[i].depth < hits[j].depth
		}
		return hits[i].key < hits[j].key
	})
	res := Result{Code: ResultSuccess}
	if sizeLimit > 0 && len(hits) > sizeLimit {
		hits = hits[:sizeLimit]
		res.Code = ResultSizeLimitExceeded
	}
	out := make([]Entry, len(hits))
	for i, h := range hits {
		out[i] = h.e.toEntry(attrs, typesOnly)
	}
	return out, res
}

// scanHasChildren tests for children the way scanSearch tests for scope:
// over the flat index, ignoring the links.
func scanHasChildren(d *DIT, dn DN) bool {
	for _, e := range d.entries {
		if len(e.dn) == len(dn)+1 && e.dn.IsUnder(dn) {
			return true
		}
	}
	return false
}

// checkLinks verifies the children index against the flat index.
func checkLinks(t *testing.T, d *DIT) {
	t.Helper()
	linked, parented := 0, 0
	for key, e := range d.entries {
		if e.key != key || e.dn.Normalize() != key {
			t.Fatalf("entry %q carries key %q (dn %q)", key, e.key, e.dn)
		}
		if want := d.entries[e.dn.Parent().Normalize()]; e.parent != want {
			t.Fatalf("entry %q: parent link %p, flat index says %p", key, e.parent, want)
		}
		if e.parent != nil {
			if parented++; e.parent.children[key] != e {
				t.Fatalf("entry %q missing from its parent's children", key)
			}
		}
		linked += len(e.children)
		if got, want := len(e.children) > 0, scanHasChildren(d, e.dn); got != want {
			t.Fatalf("entry %q: has children %v, scan says %v", key, got, want)
		}
	}
	if linked != parented {
		t.Fatalf("%d child links for %d entries with a parent", linked, parented)
	}
}

// modelGen draws DNs, attributes and filters for the model test.
type modelGen struct{ rnd *rand.Rand }

var (
	modelTypes  = []string{"cn", "CN", "ou", "Ou"}
	modelValues = []string{"alice", "Alice", "bob", "a,b", "x=y", " lead", "trail ", "#hash", "Plus+", "back\\slash", "z9"}
	modelAttrs  = []string{"tag", "Tag", "weight", "mail"}
	modelVals   = []string{"red", "Red", "blue", "3", "12", "a*b"}
	modelFilter = []string{
		"", "(objectClass=*)", "(cn=a*)", "(tag=red)", "(!(tag=red))", "(&(objectClass=top)(weight>=3))",
		"(|(ou=*)(mail=*))", "(weight<=12)", "(cn=*)",
	}
)

func (g *modelGen) pick(s []string) string { return s[g.rnd.Intn(len(s))] }

// randomCase flips the case of some letters: DN matching ignores case.
func (g *modelGen) randomCase(s string) string {
	b := []byte(s)
	for i, c := range b {
		if g.rnd.Intn(3) == 0 && (c|0x20) >= 'a' && (c|0x20) <= 'z' {
			b[i] = c ^ 0x20
		}
	}
	return string(b)
}

// existing returns the DN of a random entry.
func (g *modelGen) existing(d *DIT) DN {
	keys := make([]string, 0, len(d.entries))
	for k := range d.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys) // map order must not leak into the seeded sequence
	return d.entries[keys[g.rnd.Intn(len(keys))]].dn
}

// dn draws a DN: usually an existing entry or a fresh child of one, now
// and then a name with a missing parent or one outside the base.
func (g *modelGen) dn(d *DIT) DN {
	switch n := g.rnd.Intn(10); {
	case n < 4:
		return g.existing(d)
	case n < 8:
		return g.existing(d).Child(g.pick(modelTypes), g.pick(modelValues))
	case n < 9:
		return g.existing(d).Child("ou", "ghost").Child(g.pick(modelTypes), g.pick(modelValues))
	default:
		return DN{{Type: "cn", Value: g.pick(modelValues)}, {Type: "dc", Value: "elsewhere"}}
	}
}

// render writes dn the way a client might: random case, and sometimes
// spaces around the separators.
func (g *modelGen) render(dn DN) string {
	sep := ","
	if g.rnd.Intn(4) == 0 {
		sep = " , "
	}
	parts := make([]string, len(dn))
	for i, r := range dn {
		parts[i] = g.randomCase(r.Type) + "=" + g.randomCase(EscapeDNValue(r.Value))
	}
	return strings.Join(parts, sep)
}

func (g *modelGen) attrs() []EntryAttr {
	out := []EntryAttr{{Type: "objectClass", Vals: []string{"top"}}}
	for i := g.rnd.Intn(3); i > 0; i-- {
		out = append(out, EntryAttr{Type: g.pick(modelAttrs), Vals: []string{g.pick(modelVals)}})
	}
	return out
}

// TestDITModelAgainstScan drives 2 000 seeded random operations through
// one DIT and holds every Search to the full-scan oracle, every refusal to
// delete or rename a non-leaf to the scanned child test, and the links to
// the flat index.
func TestDITModelAgainstScan(t *testing.T) {
	const seed, ops = 15, 2000
	d, err := NewDIT("dc=Example,dc=COM")
	if err != nil {
		t.Fatal(err)
	}
	g := &modelGen{rnd: rand.New(rand.NewSource(seed))}
	searches, found := 0, 0
	for i := 0; i < ops; i++ {
		dn := g.dn(d)
		name := g.render(dn)
		_, exists := d.entries[dn.Normalize()]
		nonLeaf := scanHasChildren(d, dn)
		step := fmt.Sprintf("op %d on %q", i, name)
		switch n := g.rnd.Intn(20); {
		case n < 7:
			d.Add(name, g.attrs())
		case n < 10:
			r := d.Delete(name)
			want := ResultSuccess
			switch {
			case !exists:
				want = ResultNoSuchObject
			case nonLeaf:
				want = ResultNotAllowedOnNonLea
			}
			if r.Code != want {
				t.Fatalf("%s: delete = %d, want %d", step, r.Code, want)
			}
			if _, still := d.entries[dn.Normalize()]; still != (want == ResultNotAllowedOnNonLea) {
				t.Fatalf("%s: delete = %d but entry present = %v", step, r.Code, still)
			}
		case n < 12:
			d.Modify(name, []ModifyChange{{Op: g.rnd.Intn(3), Attr: EntryAttr{Type: g.pick(modelAttrs), Vals: []string{g.pick(modelVals)}}}})
		case n < 14:
			rdn := DN{{Type: g.pick(modelTypes), Value: g.pick(modelValues)}}
			_, taken := d.entries[dn.Parent().Child(rdn[0].Type, rdn[0].Value).Normalize()]
			r := d.ModifyDN(name, g.render(rdn), g.rnd.Intn(2) == 0)
			want := ResultSuccess
			switch {
			case !exists:
				want = ResultNoSuchObject
			case nonLeaf:
				want = ResultNotAllowedOnNonLea
			case taken:
				want = ResultEntryAlreadyExists
			}
			if r.Code != want {
				t.Fatalf("%s: modifyDN to %q = %d, want %d", step, rdn, r.Code, want)
			}
		default:
			// Most drawn names are leaves: search from a random ancestor.
			name = g.render(dn[g.rnd.Intn(len(dn)):])
			step = fmt.Sprintf("op %d on %q", i, name)
			scope := g.rnd.Intn(4) // 3 is not a scope
			var f *filter.Node
			if s := g.pick(modelFilter); s != "" {
				f = filter.MustParse(s)
			}
			limit := g.rnd.Intn(4) * g.rnd.Intn(3)
			var sel []string
			if g.rnd.Intn(3) == 0 {
				sel = []string{g.pick(modelAttrs), "cn"}
			}
			typesOnly := g.rnd.Intn(4) == 0
			got, gotRes := d.Search(name, scope, f, limit, 0, sel, typesOnly)
			want, wantRes := scanSearch(d, name, scope, f, limit, sel, typesOnly)
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("%s: search scope %d result %+v, scan %+v", step, scope, gotRes, wantRes)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: search scope %d filter %v limit %d:\n got %+v\nscan %+v", step, scope, f, limit, got, want)
			}
			searches++
			found += len(got)
		}
		if got, want := d.HasChildren(g.render(dn)), scanHasChildren(d, dn); got != want {
			t.Fatalf("%s: HasChildren = %v afterwards, scan says %v", step, got, want)
		}
		if i%50 == 0 || i == ops-1 {
			checkLinks(t, d)
		}
	}
	// The run must have exercised what it claims to: a grown tree and
	// searches that return entries.
	if d.Len() < 50 || searches < 400 || found < 1000 {
		t.Fatalf("thin run: %d entries, %d searches, %d entries found", d.Len(), searches, found)
	}
}

// fanDIT builds a directory of n entries below the base: containers
// ou=g<k> of up to nine leaves cn=e<i> each, so any one container's
// subtree stays the same size while the directory grows.
func fanDIT(tb testing.TB, n int) *DIT {
	tb.Helper()
	d, err := NewDIT("dc=bench")
	if err != nil {
		tb.Fatal(err)
	}
	attrs := []EntryAttr{{Type: "objectClass", Vals: []string{"top"}}, {Type: "tag", Vals: []string{"red"}}}
	for i := 0; i < n; i++ {
		dn := fmt.Sprintf("ou=g%d,dc=bench", i/10)
		if i%10 != 0 {
			dn = fmt.Sprintf("cn=e%d,", i) + dn
		}
		if r := d.Add(dn, attrs); r.Code != ResultSuccess {
			tb.Fatalf("add %s: %+v", dn, r)
		}
	}
	return d
}

// TestDITBaseSearchAllocsIndependentOfSize gates the point of the index: a
// base-object search costs the same in a 10-entry and a 10 000-entry
// directory.
func TestDITBaseSearchAllocsIndependentOfSize(t *testing.T) {
	f := filter.MustParse("(objectClass=*)")
	allocs := func(n int) float64 {
		d := fanDIT(t, n)
		return testing.AllocsPerRun(200, func() {
			if es, r := d.Search("cn=e5,ou=g0,dc=bench", ScopeBaseObject, f, 0, 0, nil, false); r.Code != ResultSuccess || len(es) != 1 {
				t.Fatalf("search: %d entries, %+v", len(es), r)
			}
		})
	}
	small, large := allocs(10), allocs(10000)
	if small != large {
		t.Fatalf("base search allocates %.0f on 10 entries and %.0f on 10 000", small, large)
	}
	t.Logf("base search: %.0f allocs at either size", small)
}

var ditSearchSink []Entry

// BenchmarkDITSearch is the ldapsrv rung of the layer ladder: each scope
// on one container of fanDIT, at three directory sizes.
func BenchmarkDITSearch(b *testing.B) {
	f := filter.MustParse("(objectClass=*)")
	scopes := []struct {
		name  string
		scope int
		base  string
	}{
		{"base", ScopeBaseObject, "cn=e5,ou=g0,dc=bench"},
		{"onelevel", ScopeSingleLevel, "ou=g0,dc=bench"},
		{"subtree", ScopeWholeSubtree, "ou=g0,dc=bench"},
	}
	for _, sc := range scopes {
		for _, n := range []int{10, 1100, 10000} {
			d := fanDIT(b, n)
			b.Run(fmt.Sprintf("%s/entries=%d", sc.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ditSearchSink, _ = d.Search(sc.base, sc.scope, f, 0, 0, nil, false)
				}
			})
		}
	}
}
