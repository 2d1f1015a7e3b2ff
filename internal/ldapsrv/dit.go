package ldapsrv

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"gondi/internal/core"
	"gondi/internal/filter"
)

// ditEntry is one stored entry. key, parent and children are fixed when
// the entry is written (Add, ModifyDN), so reads never normalize a stored
// DN or test containment: they follow the links.
type ditEntry struct {
	dn       DN
	key      string               // dn.Normalize()
	attrs    map[string]EntryAttr // key: lowercase type
	parent   *ditEntry            // nil for the base entry
	children map[string]*ditEntry // by key; nil until the first child
}

func (e *ditEntry) values() filter.Values {
	m := filter.MapValues{}
	for k, a := range e.attrs {
		m[k] = a.Vals
	}
	return m
}

func (e *ditEntry) toEntry(selectAttrs []string, typesOnly bool) Entry {
	out := Entry{DN: e.dn.String()}
	keys := make([]string, 0, len(e.attrs))
	for k := range e.attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := map[string]bool{}
	for _, a := range selectAttrs {
		want[strings.ToLower(a)] = true
	}
	for _, k := range keys {
		if len(want) > 0 && !want[k] && !want["*"] {
			continue
		}
		a := e.attrs[k]
		ea := EntryAttr{Type: a.Type}
		if !typesOnly {
			ea.Vals = append([]string(nil), a.Vals...)
		}
		out.Attrs = append(out.Attrs, ea)
	}
	return out
}

// DIT is the directory information tree: an index of entries keyed by
// normalized DN, each linked to its parent and children, so an operation
// costs its scope and not the directory. Safe for concurrent use.
type DIT struct {
	mu      sync.RWMutex
	base    DN
	entries map[string]*ditEntry
}

// NewDIT creates a tree with a base entry at baseDN (e.g.
// "dc=mathcs,dc=emory,dc=edu").
func NewDIT(baseDN string) (*DIT, error) {
	base, err := ParseDN(baseDN)
	if err != nil {
		return nil, err
	}
	d := &DIT{base: base, entries: map[string]*ditEntry{}}
	rootAttrs := map[string]EntryAttr{
		"objectclass": {Type: "objectClass", Vals: []string{"top", "dcObject"}},
	}
	if leaf, ok := base.Leaf(); ok {
		rootAttrs[strings.ToLower(leaf.Type)] = EntryAttr{Type: leaf.Type, Vals: []string{leaf.Value}}
	}
	key := base.Normalize()
	d.entries[key] = &ditEntry{dn: base, key: key, attrs: rootAttrs}
	return d, nil
}

// Base returns the tree's base DN.
func (d *DIT) Base() DN { return d.base }

// Len returns the number of entries.
func (d *DIT) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.entries)
}

func attrMap(attrs []EntryAttr) map[string]EntryAttr {
	m := make(map[string]EntryAttr, len(attrs))
	for _, a := range attrs {
		key := strings.ToLower(a.Type)
		if ex, ok := m[key]; ok {
			ex.Vals = append(ex.Vals, a.Vals...)
			m[key] = ex
		} else {
			m[key] = EntryAttr{Type: a.Type, Vals: append([]string(nil), a.Vals...)}
		}
	}
	return m
}

// addValue adds v to attribute typ of attrs unless the attribute already
// holds it (values compare case-insensitively).
func addValue(attrs map[string]EntryAttr, typ, v string) {
	key := strings.ToLower(typ)
	a := attrs[key]
	if a.Type == "" {
		a.Type = typ
	}
	if !slices.ContainsFunc(a.Vals, func(x string) bool { return strings.EqualFold(x, v) }) {
		a.Vals = append(a.Vals, v)
	}
	attrs[key] = a
}

// removeValues removes vals from attribute key of attrs, and the
// attribute once it holds no value.
func removeValues(attrs map[string]EntryAttr, key string, vals ...string) {
	a, ok := attrs[key]
	if !ok {
		return
	}
	a.Vals = slices.DeleteFunc(a.Vals, func(v string) bool {
		return slices.ContainsFunc(vals, func(rm string) bool { return strings.EqualFold(v, rm) })
	})
	if len(a.Vals) == 0 {
		delete(attrs, key)
	} else {
		attrs[key] = a
	}
}

// Add inserts an entry; its parent must exist and the DN must be free.
// The RDN attribute is added implicitly if missing.
func (d *DIT) Add(dnStr string, attrs []EntryAttr) Result {
	dn, err := ParseDN(dnStr)
	if err != nil {
		return Result{Code: ResultInvalidDNSyntax, Message: err.Error()}
	}
	if !dn.IsUnder(d.base) {
		return Result{Code: ResultNoSuchObject, Message: "DN outside base"}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	key := dn.Normalize()
	if _, exists := d.entries[key]; exists {
		return Result{Code: ResultEntryAlreadyExists}
	}
	var parent *ditEntry
	if !dn.Equal(d.base) {
		if parent = d.entries[dn.Parent().Normalize()]; parent == nil {
			return Result{Code: ResultNoSuchObject, MatchedDN: d.deepestExistingLocked(dn).String(), Message: "parent missing"}
		}
	}
	m := attrMap(attrs)
	if leaf, ok := dn.Leaf(); ok {
		addValue(m, leaf.Type, leaf.Value)
	}
	d.linkLocked(&ditEntry{dn: dn, key: key, attrs: m, parent: parent})
	return Result{Code: ResultSuccess}
}

// linkLocked indexes e under its key and in its parent's children.
func (d *DIT) linkLocked(e *ditEntry) {
	d.entries[e.key] = e
	if e.parent != nil {
		if e.parent.children == nil {
			e.parent.children = map[string]*ditEntry{}
		}
		e.parent.children[e.key] = e
	}
}

// unlinkLocked removes e from both indexes.
func (d *DIT) unlinkLocked(e *ditEntry) {
	delete(d.entries, e.key)
	if e.parent != nil {
		delete(e.parent.children, e.key)
	}
}

func (d *DIT) deepestExistingLocked(dn DN) DN {
	for p := dn.Parent(); len(p) > 0; p = p.Parent() {
		if _, ok := d.entries[p.Normalize()]; ok {
			return p
		}
	}
	return d.base
}

// Delete removes a leaf entry.
func (d *DIT) Delete(dnStr string) Result {
	dn, err := ParseDN(dnStr)
	if err != nil {
		return Result{Code: ResultInvalidDNSyntax, Message: err.Error()}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[dn.Normalize()]
	if !ok {
		return Result{Code: ResultNoSuchObject}
	}
	if len(e.children) > 0 {
		return Result{Code: ResultNotAllowedOnNonLea}
	}
	d.unlinkLocked(e)
	return Result{Code: ResultSuccess}
}

// HasChildren reports whether the entry has children.
func (d *DIT) HasChildren(dnStr string) bool {
	dn, err := ParseDN(dnStr)
	if err != nil {
		return false
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	e, ok := d.entries[dn.Normalize()]
	return ok && len(e.children) > 0
}

// ModifyChange is one change of a Modify operation.
type ModifyChange struct {
	Op   int // ModifyAdd, ModifyDelete, ModifyReplace
	Attr EntryAttr
}

// Modify applies a change batch atomically (all or nothing).
func (d *DIT) Modify(dnStr string, changes []ModifyChange) Result {
	dn, err := ParseDN(dnStr)
	if err != nil {
		return Result{Code: ResultInvalidDNSyntax, Message: err.Error()}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[dn.Normalize()]
	if !ok {
		return Result{Code: ResultNoSuchObject}
	}
	// Work on a copy for atomicity.
	work := make(map[string]EntryAttr, len(e.attrs))
	for k, a := range e.attrs {
		work[k] = EntryAttr{Type: a.Type, Vals: append([]string(nil), a.Vals...)}
	}
	for _, ch := range changes {
		key := strings.ToLower(ch.Attr.Type)
		if key == "" {
			return Result{Code: ResultProtocolError, Message: "empty attribute type"}
		}
		switch ch.Op {
		case ModifyAdd:
			ex := work[key]
			if ex.Type == "" {
				ex.Type = ch.Attr.Type
			}
			ex.Vals = append(ex.Vals, ch.Attr.Vals...)
			work[key] = ex
		case ModifyReplace:
			if len(ch.Attr.Vals) == 0 {
				delete(work, key)
			} else {
				work[key] = EntryAttr{Type: ch.Attr.Type, Vals: append([]string(nil), ch.Attr.Vals...)}
			}
		case ModifyDelete:
			if _, present := work[key]; !present {
				return Result{Code: ResultNoSuchObject, Message: "no such attribute " + ch.Attr.Type}
			}
			if len(ch.Attr.Vals) == 0 {
				delete(work, key)
			} else {
				removeValues(work, key, ch.Attr.Vals...)
			}
		default:
			return Result{Code: ResultProtocolError, Message: "bad modify op"}
		}
	}
	e.attrs = work
	return Result{Code: ResultSuccess}
}

// ModifyDN renames a leaf entry in place (newSuperior unsupported).
func (d *DIT) ModifyDN(dnStr, newRDN string, deleteOldRDN bool) Result {
	dn, err := ParseDN(dnStr)
	if err != nil {
		return Result{Code: ResultInvalidDNSyntax, Message: err.Error()}
	}
	rdnDN, err := ParseDN(newRDN)
	if err != nil || len(rdnDN) != 1 {
		return Result{Code: ResultInvalidDNSyntax, Message: "bad newRDN"}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.entries[dn.Normalize()]
	if !ok {
		return Result{Code: ResultNoSuchObject}
	}
	if len(e.children) > 0 {
		return Result{Code: ResultNotAllowedOnNonLea}
	}
	newDN := dn.Parent().Child(rdnDN[0].Type, rdnDN[0].Value)
	newKey := newDN.Normalize()
	if _, exists := d.entries[newKey]; exists {
		return Result{Code: ResultEntryAlreadyExists}
	}
	if oldLeaf, ok := dn.Leaf(); ok && deleteOldRDN {
		removeValues(e.attrs, strings.ToLower(oldLeaf.Type), oldLeaf.Value)
	}
	addValue(e.attrs, rdnDN[0].Type, rdnDN[0].Value)
	d.unlinkLocked(e)
	e.dn, e.key = newDN, newKey
	d.linkLocked(e)
	return Result{Code: ResultSuccess}
}

// Get returns a copy of the entry at dn.
func (d *DIT) Get(dnStr string) (Entry, bool) {
	dn, err := ParseDN(dnStr)
	if err != nil {
		return Entry{}, false
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	e, ok := d.entries[dn.Normalize()]
	if !ok {
		return Entry{}, false
	}
	return e.toEntry(nil, false), true
}

// Search evaluates a filter under baseDN with the given scope; it returns
// matching entries (sorted shallow-first then lexicographically) and the
// result. sizeLimit 0 means unlimited. It visits only the scope: the base
// entry, its children, or the subtree below it.
func (d *DIT) Search(baseDN string, scope int, f *filter.Node, sizeLimit int, timeLimit time.Duration, attrs []string, typesOnly bool) ([]Entry, Result) {
	var deadline time.Time
	if timeLimit > 0 {
		deadline = time.Now().Add(timeLimit)
	}
	base, err := ParseDN(baseDN)
	if err != nil {
		return nil, Result{Code: ResultInvalidDNSyntax, Message: err.Error()}
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	root, ok := d.entries[base.Normalize()]
	if !ok {
		return nil, Result{Code: ResultNoSuchObject, MatchedDN: d.deepestExistingLocked(base).String()}
	}
	// The LDAP scopes are numbered as core.SearchScope.
	if scope < ScopeBaseObject || scope > ScopeWholeSubtree {
		return nil, Result{Code: ResultProtocolError, Message: "bad scope"}
	}
	sc := core.SearchScope(scope)
	type visit struct {
		depth int
		e     *ditEntry
	}
	queue := []visit{{0, root}}
	var hits []visit
	timedOut := false
	for i := 0; i < len(queue); i++ {
		// Check the clock periodically, not per entry, to keep the walk
		// cheap on big subtrees.
		if !deadline.IsZero() && (i+1)%64 == 0 && time.Now().After(deadline) {
			timedOut = true
			break
		}
		v := queue[i]
		if sc.Covers(v.depth) && (f == nil || f.Matches(v.e.values())) {
			hits = append(hits, v)
		}
		if sc.Descends(v.depth) {
			for _, c := range v.e.children {
				queue = append(queue, visit{v.depth + 1, c})
			}
		}
	}
	slices.SortFunc(hits, func(a, b visit) int {
		if a.depth != b.depth {
			return a.depth - b.depth
		}
		return strings.Compare(a.e.key, b.e.key)
	})
	res := Result{Code: ResultSuccess}
	if !deadline.IsZero() && (timedOut || time.Now().After(deadline)) {
		res.Code = ResultTimeLimitExceeded
	}
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

// CheckPassword verifies a simple bind against an entry's userPassword.
func (d *DIT) CheckPassword(dnStr, password string) bool {
	dn, err := ParseDN(dnStr)
	if err != nil {
		return false
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	e, ok := d.entries[dn.Normalize()]
	if !ok {
		return false
	}
	for _, v := range e.attrs["userpassword"].Vals {
		if v == password {
			return true
		}
	}
	return false
}
