// Package hdns implements the Harness Distributed Naming Service (§4 of
// the paper): a fault-tolerant, persistent, replicated naming service. A
// group of nodes maintains consistent replicas of the registration data
// over the jgroups substrate: reads are served entirely locally by any
// node, writes are multicast to every member. Each node persists its
// replica to disk periodically and on exit, crashed nodes rejoin and pull
// state, and the PRIMARY PARTITION protocol resynchronizes after network
// partitions.
package hdns

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"gondi/internal/core"
	"gondi/internal/filter"
)

// OpKind identifies a replicated write operation.
type OpKind uint8

// Replicated operations.
const (
	OpBind OpKind = iota + 1
	OpRebind
	OpUnbind
	OpRename
	OpCreateCtx
	OpDestroyCtx
	OpModAttrs
	OpLeaseRenew
	// OpExpire removes Name if its lease is still expired at Now: the
	// coordinator's reaper issues it, and a renewal or rebind sequenced
	// after the reaper's scan wins. It has no wire method.
	OpExpire
)

func (k OpKind) String() string {
	names := [...]string{"?", "bind", "rebind", "unbind", "rename",
		"createCtx", "destroyCtx", "modAttrs", "leaseRenew", "expire"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// ModRec is one attribute modification: core.AttributeMod in the op
// layout, its ID and values flattened.
type ModRec struct {
	Op   uint8 // 0 add, 1 replace, 2 remove
	ID   string
	Vals []string
}

// Op is a replicated write, applied deterministically on every replica in
// delivery order. It is also every client request: the node stamps Kind,
// ID and Now on a write, and the read tail (Filter to Secret) travels
// only in requests.
type Op struct {
	ID    string // issuing node + sequence, for client ack matching
	Kind  OpKind
	Name  []string
	Name2 []string // rename destination
	Obj   []byte   // marshalled bound object
	Attrs map[string][]string
	// ReplaceAttrs selects rebind attribute semantics: true replaces the
	// attribute set, false preserves the existing one.
	ReplaceAttrs bool
	Mods         []ModRec
	// LeaseMillis > 0 grants/renews a lease of that duration.
	LeaseMillis int64
	// Now is the issuer's clock (unix millis); lease expiries derive
	// from it deterministically on every replica.
	Now int64

	Filter  string // search filter (RFC 4515)
	Scope   int    // search and watch scope, numbered as core.SearchScope
	Limit   int    // search result limit, 0 none
	WatchID uint64 // the watch an unwatch cancels
	Secret  string // the auth handshake's secret
}

// Change describes an applied mutation for event distribution.
type Change struct {
	Kind  OpKind
	Name  []string
	Name2 []string // a rename's new name
	Obj   []byte
	Old   []byte
}

// Store errors: an op's failure as ApplyVersioned reports it. The node
// gives each its core error (storeErr) before it leaves the process.
const (
	errNotFound     = "not found"
	errBound        = "already bound"
	errNotCtx       = "not a context"
	errCtxNotEmpty  = "context not empty"
	errEmptyName    = "empty name"
	errUnsupportedK = "unsupported op"
)

// entry's field names are also the gob snapshot's (snapgob.go).
type entry struct {
	Obj      []byte
	Attrs    map[string][]string
	Children map[string]*entry // non-nil => context
	// LeaseExpiry is unix millis; 0 = no lease.
	LeaseExpiry int64
}

func newCtxEntry() *entry {
	return &entry{Children: map[string]*entry{}, Attrs: map[string][]string{}}
}

func (e *entry) isCtx() bool { return e.Children != nil }

// Store is the replicated name tree. All writes go through
// ApplyVersioned so every replica transitions identically; reads are
// local.
type Store struct {
	mu   sync.RWMutex
	root *entry
	// version counts applied ops (diagnostics, snapshot naming).
	version uint64
	// leased is false only while no entry holds a lease: applies (write
	// lock) set it, a scan (read lock) that finds none clears it.
	leased atomic.Bool
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{root: newCtxEntry()}
}

// Version returns the number of applied operations.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

func (s *Store) resolveParent(name []string) (*entry, string, string) {
	if len(name) == 0 {
		return nil, "", errEmptyName
	}
	cur := s.root
	for i := 0; i < len(name)-1; i++ {
		next, ok := cur.Children[name[i]]
		if !ok {
			return nil, "", errNotFound
		}
		if !next.isCtx() {
			return nil, "", errNotCtx
		}
		cur = next
	}
	return cur, name[len(name)-1], ""
}

func (s *Store) find(name []string) (*entry, string) {
	cur := s.root
	for i := 0; i < len(name); i++ {
		next, ok := cur.Children[name[i]]
		if !ok {
			return nil, errNotFound
		}
		if i < len(name)-1 && !next.isCtx() {
			return nil, errNotCtx
		}
		cur = next
	}
	return cur, ""
}

// ApplyVersioned executes a replicated op. It reports the changes it
// made (for event fan-out), the store version the op produced, and an
// error string, "" on success. Every op — success or failure —
// consumes exactly one version, so the versions stamped onto WAL
// records stay consecutive and replay can detect gaps.
func (s *Store) ApplyVersioned(op *Op) (changes []Change, version uint64, errStr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.version++
	version = s.version
	if op.LeaseMillis > 0 {
		s.leased.Store(true)
	}
	changes, errStr = s.applyLocked(op)
	return
}

func (s *Store) applyLocked(op *Op) (changes []Change, errStr string) {
	switch op.Kind {
	case OpBind, OpRebind:
		parent, last, e := s.resolveParent(op.Name)
		if e != "" {
			return nil, e
		}
		old, exists := parent.Children[last]
		if exists && op.Kind == OpBind {
			return nil, errBound
		}
		if exists && old.isCtx() {
			return nil, errNotCtx
		}
		ne := &entry{Obj: op.Obj}
		switch {
		case op.Kind == OpBind || op.ReplaceAttrs || !exists:
			ne.Attrs = copyAttrs(op.Attrs)
		default:
			ne.Attrs = old.Attrs
		}
		ne.LeaseExpiry = leaseExpiry(op)
		parent.Children[last] = ne
		ch := Change{Kind: OpBind, Name: op.Name, Obj: op.Obj}
		if exists {
			ch.Kind = OpRebind
			ch.Old = old.Obj
		}
		return []Change{ch}, ""
	case OpUnbind:
		parent, last, e := s.resolveParent(op.Name)
		if e != "" {
			return nil, e
		}
		old, exists := parent.Children[last]
		if !exists {
			return nil, "" // JNDI: unbind of absent name succeeds
		}
		delete(parent.Children, last)
		return []Change{{Kind: OpUnbind, Name: op.Name, Old: old.Obj}}, ""
	case OpRename:
		oldParent, oldLast, e := s.resolveParent(op.Name)
		if e != "" {
			return nil, e
		}
		newParent, newLast, e := s.resolveParent(op.Name2)
		if e != "" {
			return nil, e
		}
		ent, ok := oldParent.Children[oldLast]
		if !ok {
			return nil, errNotFound
		}
		if _, exists := newParent.Children[newLast]; exists {
			return nil, errBound
		}
		delete(oldParent.Children, oldLast)
		newParent.Children[newLast] = ent
		return []Change{{Kind: OpRename, Name: op.Name, Name2: op.Name2, Obj: ent.Obj}}, ""
	case OpCreateCtx:
		parent, last, e := s.resolveParent(op.Name)
		if e != "" {
			return nil, e
		}
		if _, exists := parent.Children[last]; exists {
			return nil, errBound
		}
		ne := newCtxEntry()
		ne.Attrs = copyAttrs(op.Attrs)
		parent.Children[last] = ne
		return []Change{{Kind: OpCreateCtx, Name: op.Name}}, ""
	case OpDestroyCtx:
		parent, last, e := s.resolveParent(op.Name)
		if e != "" {
			return nil, e
		}
		ent, ok := parent.Children[last]
		if !ok {
			return nil, "" // destroying a missing subcontext succeeds
		}
		if !ent.isCtx() {
			return nil, errNotCtx
		}
		if len(ent.Children) > 0 {
			return nil, errCtxNotEmpty
		}
		delete(parent.Children, last)
		return []Change{{Kind: OpDestroyCtx, Name: op.Name}}, ""
	case OpModAttrs:
		ent, e := s.find(op.Name)
		if e != "" {
			return nil, e
		}
		attrs := copyAttrs(ent.Attrs)
		for _, m := range op.Mods {
			key := strings.ToLower(m.ID)
			switch m.Op {
			case 0: // add
				attrs[key] = appendUnique(attrs[key], m.Vals)
			case 1: // replace
				if len(m.Vals) == 0 {
					delete(attrs, key)
				} else {
					attrs[key] = append([]string(nil), m.Vals...)
				}
			case 2: // remove
				if len(m.Vals) == 0 {
					delete(attrs, key)
					break
				}
				var keep []string
				for _, v := range attrs[key] {
					drop := false
					for _, rm := range m.Vals {
						if strings.EqualFold(v, rm) {
							drop = true
						}
					}
					if !drop {
						keep = append(keep, v)
					}
				}
				if len(keep) == 0 {
					delete(attrs, key)
				} else {
					attrs[key] = keep
				}
			default:
				return nil, "bad attribute mod"
			}
		}
		ent.Attrs = attrs
		return []Change{{Kind: OpModAttrs, Name: op.Name, Obj: ent.Obj}}, ""
	case OpLeaseRenew:
		ent, e := s.find(op.Name)
		if e != "" {
			return nil, e
		}
		ent.LeaseExpiry = leaseExpiry(op)
		return nil, ""
	case OpExpire:
		if parent, last, e := s.resolveParent(op.Name); e == "" {
			if old, ok := parent.Children[last]; ok && old.LeaseExpiry > 0 && old.LeaseExpiry <= op.Now {
				delete(parent.Children, last)
				return []Change{{Kind: OpUnbind, Name: op.Name, Old: old.Obj}}, ""
			}
		}
		return nil, "" // renewed, rebound without a lease, or gone
	default:
		return nil, errUnsupportedK
	}
}

// leaseExpiry is when op's lease ends (unix millis), or 0 for none: a
// LeaseMillis that is not positive, or an expiry past the int64 range.
func leaseExpiry(op *Op) int64 {
	if exp := op.Now + op.LeaseMillis; op.LeaseMillis > 0 && exp > 0 {
		return exp
	}
	return 0
}

func copyAttrs(in map[string][]string) map[string][]string {
	out := make(map[string][]string, len(in))
	for k, v := range in {
		out[strings.ToLower(k)] = append([]string(nil), v...)
	}
	return out
}

func appendUnique(have, add []string) []string {
	for _, v := range add {
		dup := false
		for _, h := range have {
			if strings.EqualFold(h, v) {
				dup = true
			}
		}
		if !dup {
			have = append(have, v)
		}
	}
	return have
}

// NodeView is a read result.
type NodeView struct {
	Exists bool
	IsCtx  bool
	Obj    []byte
	Attrs  map[string][]string
}

// Lookup reads the entry at name; reads are purely local (the load-
// balancing property of §4.1).
func (s *Store) Lookup(name []string) NodeView {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(name) == 0 {
		return NodeView{Exists: true, IsCtx: true}
	}
	ent, e := s.find(name)
	if e != "" {
		return NodeView{}
	}
	return NodeView{Exists: true, IsCtx: ent.isCtx(), Obj: ent.Obj, Attrs: copyAttrs(ent.Attrs)}
}

// ListEntry is one List result.
type ListEntry struct {
	Name  string
	IsCtx bool
	Obj   []byte
}

// List enumerates the children of a context, sorted by name.
func (s *Store) List(name []string) ([]ListEntry, string) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ent := s.root
	if len(name) > 0 {
		var e string
		ent, e = s.find(name)
		if e != "" {
			return nil, e
		}
	}
	if !ent.isCtx() {
		return nil, errNotCtx
	}
	out := make([]ListEntry, 0, len(ent.Children))
	for n, c := range ent.Children {
		out = append(out, ListEntry{Name: n, IsCtx: c.isCtx(), Obj: c.Obj})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, ""
}

// SearchHit is one Search result.
type SearchHit struct {
	Name  []string
	IsCtx bool
	Obj   []byte
	Attrs map[string][]string
}

// Search evaluates a filter under name, its scope numbered as
// core.SearchScope. It returns at most limit hits (0: no limit),
// shallowest first and each depth in name order, so a limit keeps the
// shallowest matches.
func (s *Store) Search(name []string, f *filter.Node, scope int, limit int) ([]SearchHit, string) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	base := s.root
	if len(name) > 0 {
		var e string
		base, e = s.find(name)
		if e != "" {
			return nil, e
		}
	}
	sc := core.SearchScope(scope)
	type visit struct {
		ent *entry
		rel []string
	}
	var hits []SearchHit
	queue := []visit{{ent: base}}
	for i := 0; i < len(queue) && (limit <= 0 || len(hits) < limit); i++ {
		v := queue[i]
		depth := len(v.rel)
		if sc.Covers(depth) && f.Matches(filter.MapValues(v.ent.Attrs)) {
			hits = append(hits, SearchHit{Name: v.rel, IsCtx: v.ent.isCtx(), Obj: v.ent.Obj, Attrs: copyAttrs(v.ent.Attrs)})
		}
		if !v.ent.isCtx() || !sc.Descends(depth) {
			continue
		}
		for _, n := range sortedKeys(v.ent.Children) {
			queue = append(queue, visit{v.ent.Children[n], append(v.rel[:depth:depth], n)})
		}
	}
	return hits, ""
}

// ExpiredLeases returns names whose lease expiry precedes nowMillis. A
// store that holds no leased entry is not walked.
func (s *Store) ExpiredLeases(nowMillis int64) [][]string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if !s.leased.Load() {
		return nil
	}
	var out [][]string
	var path []string // reused: only a hit is copied
	leased := false
	var walk func(ent *entry)
	walk = func(ent *entry) {
		for n, c := range ent.Children {
			path = append(path, n)
			if c.LeaseExpiry > 0 {
				leased = true
				if c.LeaseExpiry < nowMillis {
					out = append(out, slices.Clone(path))
				}
			}
			if c.isCtx() {
				walk(c)
			}
			path = path[:len(path)-1]
		}
	}
	walk(s.root)
	if !leased {
		s.leased.Store(false)
	}
	return out
}

// SnapshotVersioned encodes the full tree with the version it captures,
// read under one lock so the pair is consistent: state transfer sends
// the snapshot, and the snapshot file's lineage header carries the
// version.
func (s *Store) SnapshotVersioned() (uint64, []byte) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version, appendSnapshot(nil, s.version, s.root)
}

// Restore replaces the tree and version from a snapshot. Its ops apply
// to a fresh tree through the one apply path; an op that fails rejects
// the whole snapshot and leaves the store as it was.
func (s *Store) Restore(b []byte) error {
	fresh, failed := NewStore(), error(nil)
	read := decodeSnapshot
	if len(b) == 0 || b[0] != snapV1 {
		read = decodeGobSnapshot
	}
	version, err := read(b, func(op *Op) {
		if _, e := fresh.applyLocked(op); e != "" && failed == nil {
			failed = fmt.Errorf("hdns: snapshot %v %q: %s", op.Kind, op.Name, e)
		}
	})
	if err = cmp.Or(err, failed); err != nil {
		return err
	}
	s.mu.Lock()
	s.root, s.version = fresh.root, version
	s.mu.Unlock()
	s.leased.Store(true) // the next scan finds out
	return nil
}

// treeOps hands fn the ops that rebuild the tree under root: the root's
// attributes as one OpModAttrs on the empty name, then every entry,
// parents before children and siblings in name order. A context is an
// OpCreateCtx, and a leased one (the root too) an OpLeaseRenew whose
// LeaseMillis is its absolute expiry, at Now 0; a binding is an OpBind
// leased the same way. op.Name is reused between calls.
func treeOps(root *entry, fn func(op *Op)) {
	var mods []ModRec
	for _, k := range sortedKeys(root.Attrs) {
		// Replace (1) keeps the values as they are, but with none it
		// deletes the key, which add (0) keeps.
		mods = append(mods, ModRec{Op: uint8(min(len(root.Attrs[k]), 1)), ID: k, Vals: root.Attrs[k]})
	}
	if mods != nil {
		fn(&Op{Kind: OpModAttrs, Mods: mods})
	}
	var path []string
	var walk func(ctx *entry)
	walk = func(ctx *entry) {
		if ctx.LeaseExpiry > 0 {
			fn(&Op{Kind: OpLeaseRenew, Name: path, LeaseMillis: ctx.LeaseExpiry})
		}
		for _, name := range sortedKeys(ctx.Children) {
			c := ctx.Children[name]
			path = append(path, name)
			if c.isCtx() {
				fn(&Op{Kind: OpCreateCtx, Name: path, Attrs: c.Attrs})
				walk(c)
			} else {
				fn(&Op{Kind: OpBind, Name: path, Obj: c.Obj, Attrs: c.Attrs, LeaseMillis: c.LeaseExpiry})
			}
			path = path[:len(path)-1]
		}
	}
	walk(root)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Len returns the total number of entries (excluding the root).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	var walk func(e *entry)
	walk = func(e *entry) {
		n += len(e.Children)
		for _, c := range e.Children {
			if c.isCtx() {
				walk(c)
			}
		}
	}
	walk(s.root)
	return n
}
