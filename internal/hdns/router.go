package hdns

import (
	"context"
	"errors"
	"sort"
	"strings"
	"sync"

	"gondi/internal/core"
	"gondi/internal/shard"
)

// Conn is the client-side HDNS surface: what a provider needs from "a
// connection to the namespace", whether that is one replication group
// (*Client) or several behind a consistent-hashing router (*Router).
// Code written against Conn is shard-oblivious — the paper's service
// integration story extended one level: the namespace's own storage
// becomes a set of federated groups behind the same interface.
type Conn interface {
	Lookup(ctx context.Context, name []string) (NodeView, error)
	Bind(ctx context.Context, name []string, obj []byte, attrs map[string][]string, leaseMillis int64) error
	Rebind(ctx context.Context, name []string, obj []byte, attrs map[string][]string, replaceAttrs bool, leaseMillis int64) error
	Unbind(ctx context.Context, name []string) error
	Rename(ctx context.Context, oldName, newName []string) error
	List(ctx context.Context, name []string) ([]ListEntry, error)
	CreateCtx(ctx context.Context, name []string, attrs map[string][]string) error
	DestroyCtx(ctx context.Context, name []string) error
	ModAttrs(ctx context.Context, name []string, mods []ModRec) error
	Search(ctx context.Context, name []string, filterStr string, scope, limit int) ([]SearchHit, error)
	RenewLease(ctx context.Context, name []string, leaseMillis int64) (int64, error)
	Watch(ctx context.Context, target []string, scope int, fn func(EventMsg)) (cancel func(), err error)
	Info(ctx context.Context) (NodeInfo, error)
	CallMany(ctx context.Context, ops []BatchOp) ([]BatchRsp, error)
	LookupMany(ctx context.Context, names [][]string) ([]BatchRsp, error)
	BindMany(ctx context.Context, binds []BindManyOp) ([]BatchRsp, error)
	Close() error
	Closed() bool
	Done() <-chan struct{}
}

var _ Conn = (*Client)(nil)

// Router routes HDNS operations across a sharded deployment: one Conn
// per replica group, names mapped to groups by the canonical consistent
// hash ring. Single-name ops go to exactly one group; root-scoped reads
// and batches fan out and merge. The Router adds no consistency of its
// own — each group keeps its PRIMARY_PARTITION guarantees, and the only
// cross-group composite (Rename across groups) is emulated and
// documented as non-atomic.
type Router struct {
	ring  *shard.Ring
	conns []Conn

	closeOnce sync.Once
	done      chan struct{}
}

// NewRouter wraps one Conn per replica group (index = shard index). A
// single conn collapses to pass-through routing; zero conns is an error.
func NewRouter(conns []Conn) (*Router, error) {
	if len(conns) == 0 {
		return nil, errors.New("hdns: router needs at least one group")
	}
	r := &Router{ring: shard.Cached(len(conns)), conns: conns, done: make(chan struct{})}
	// Server-side watch registrations die with their group connection, so
	// the router's Done mirrors the first group loss: holders re-Watch
	// through the provider's failover path just as with a single client.
	for _, c := range conns {
		go func(c Conn) {
			select {
			case <-c.Done():
				r.closeOnce.Do(func() { close(r.done) })
			case <-r.done:
			}
		}(c)
	}
	return r, nil
}

// Groups returns the number of replica groups behind the router.
func (r *Router) Groups() int { return len(r.conns) }

// GroupConn exposes one group's connection (diagnostics and tests).
func (r *Router) GroupConn(i int) Conn { return r.conns[i] }

// RouteName reports which group index serves name (tests, fedctl).
func (r *Router) RouteName(name []string) int { return r.ring.RouteName(name) }

func (r *Router) pick(name []string) Conn { return r.conns[r.ring.RouteName(name)] }

func (r *Router) Lookup(ctx context.Context, name []string) (NodeView, error) {
	return r.pick(name).Lookup(ctx, name)
}

func (r *Router) Bind(ctx context.Context, name []string, obj []byte, attrs map[string][]string, leaseMillis int64) error {
	return r.pick(name).Bind(ctx, name, obj, attrs, leaseMillis)
}

func (r *Router) Rebind(ctx context.Context, name []string, obj []byte, attrs map[string][]string, replaceAttrs bool, leaseMillis int64) error {
	return r.pick(name).Rebind(ctx, name, obj, attrs, replaceAttrs, leaseMillis)
}

func (r *Router) Unbind(ctx context.Context, name []string) error {
	return r.pick(name).Unbind(ctx, name)
}

// Rename within one group is the group's atomic rename. Across groups
// it is emulated as lookup + atomic bind + unbind: the destination bind
// keeps the "fail if bound" contract, but a crash between bind and
// unbind can leave the object visible under both names (resolved by
// retrying the rename or unbinding the source). Moving a context across
// groups is refused with *core.CrossShardRenameError.
func (r *Router) Rename(ctx context.Context, oldName, newName []string) error {
	src, dst := r.ring.RouteName(oldName), r.ring.RouteName(newName)
	if src == dst {
		return r.conns[src].Rename(ctx, oldName, newName)
	}
	view, err := r.conns[src].Lookup(ctx, oldName)
	if err != nil {
		return err
	}
	if !view.Exists {
		return core.ErrNotFound
	}
	if view.IsCtx {
		// Moving a whole subtree between groups is a rebalance, not a
		// rename; refuse typed rather than half-copy a context.
		return &core.CrossShardRenameError{OldName: strings.Join(oldName, "/"), NewName: strings.Join(newName, "/")}
	}
	if err := r.conns[dst].Bind(ctx, newName, view.Obj, view.Attrs, 0); err != nil {
		return err
	}
	return r.conns[src].Unbind(ctx, oldName)
}

func (r *Router) List(ctx context.Context, name []string) ([]ListEntry, error) {
	if len(name) > 0 {
		return r.pick(name).List(ctx, name)
	}
	// Root: every group holds its own top-level entries; merge them.
	merged := make([][]ListEntry, len(r.conns))
	err := r.eachGroup(func(i int, c Conn) error {
		list, e := c.List(ctx, name)
		merged[i] = list
		return e
	})
	if err != nil {
		return nil, err
	}
	var out []ListEntry
	for _, l := range merged {
		out = append(out, l...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

func (r *Router) CreateCtx(ctx context.Context, name []string, attrs map[string][]string) error {
	return r.pick(name).CreateCtx(ctx, name, attrs)
}

func (r *Router) DestroyCtx(ctx context.Context, name []string) error {
	return r.pick(name).DestroyCtx(ctx, name)
}

func (r *Router) ModAttrs(ctx context.Context, name []string, mods []ModRec) error {
	return r.pick(name).ModAttrs(ctx, name, mods)
}

func (r *Router) Search(ctx context.Context, name []string, filterStr string, scope, limit int) ([]SearchHit, error) {
	if len(name) > 0 {
		return r.pick(name).Search(ctx, name, filterStr, scope, limit)
	}
	merged := make([][]SearchHit, len(r.conns))
	err := r.eachGroup(func(i int, c Conn) error {
		hits, e := c.Search(ctx, name, filterStr, scope, limit)
		merged[i] = hits
		return e
	})
	if err != nil {
		return nil, err
	}
	var out []SearchHit
	for _, h := range merged {
		out = append(out, h...)
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out, nil
}

func (r *Router) RenewLease(ctx context.Context, name []string, leaseMillis int64) (int64, error) {
	return r.pick(name).RenewLease(ctx, name, leaseMillis)
}

// Watch on a non-root target registers with the owning group. A root
// watch fans out to every group; cancel tears all registrations down.
func (r *Router) Watch(ctx context.Context, target []string, scope int, fn func(EventMsg)) (func(), error) {
	if len(target) > 0 {
		return r.pick(target).Watch(ctx, target, scope, fn)
	}
	cancels := make([]func(), 0, len(r.conns))
	for _, c := range r.conns {
		cancel, err := c.Watch(ctx, target, scope, fn)
		if err != nil {
			for _, u := range cancels {
				u()
			}
			return nil, err
		}
		cancels = append(cancels, cancel)
	}
	return func() {
		for _, u := range cancels {
			u()
		}
	}, nil
}

// Info aggregates the deployment: group 0's identity fields, entry and
// version counts summed across groups, and the shard arity.
func (r *Router) Info(ctx context.Context) (NodeInfo, error) {
	infos, err := r.groupInfos(ctx)
	if err != nil {
		return NodeInfo{}, err
	}
	agg := infos[0]
	agg.ShardGroups = len(r.conns)
	agg.ShardIndex = 0
	for _, in := range infos[1:] {
		agg.Entries += in.Entries
		agg.Version += in.Version
		agg.WALBytes += in.WALBytes
	}
	return agg, nil
}

// View assembles the per-group membership picture (fedctl diagnostics).
func (r *Router) View(ctx context.Context) (shard.View, error) {
	infos, err := r.groupInfos(ctx)
	if err != nil {
		return shard.View{}, err
	}
	v := shard.View{Groups: make([]shard.GroupView, len(infos))}
	for i, in := range infos {
		v.Groups[i] = shard.GroupView{Index: i, Authority: in.Addr, Members: in.Members, Entries: in.Entries}
	}
	return v, nil
}

func (r *Router) groupInfos(ctx context.Context) ([]NodeInfo, error) {
	infos := make([]NodeInfo, len(r.conns))
	err := r.eachGroup(func(i int, c Conn) error {
		in, e := c.Info(ctx)
		infos[i] = in
		return e
	})
	if err != nil {
		return nil, err
	}
	return infos, nil
}

// eachGroup runs fn once per group concurrently, returning the first
// error (fan-out reads want all-or-error; batches use CallMany's
// per-item semantics instead).
func (r *Router) eachGroup(fn func(i int, c Conn) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(r.conns))
	for i, c := range r.conns {
		wg.Add(1)
		go func(i int, c Conn) {
			defer wg.Done()
			errs[i] = fn(i, c)
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// CallMany splits a batch by each item's routed group, issues one
// sub-batch per group concurrently (each riding PR 6's batch frames on
// that group's connection), and reassembles results in submission
// order. Partial failure is typed per item: a group-level transport
// failure surfaces as that group's items' errors while the other
// groups' results return normally — exactly the per-item contract a
// single node gives for an op that fails mid-batch.
func (r *Router) CallMany(ctx context.Context, ops []BatchOp) ([]BatchRsp, error) {
	if len(r.conns) == 1 {
		return r.conns[0].CallMany(ctx, ops)
	}
	type subBatch struct {
		ops []BatchOp
		idx []int // position of each sub-op in the original batch
	}
	subs := make([]subBatch, len(r.conns))
	for i, op := range ops {
		g := 0
		if op.Req != nil {
			g = r.ring.RouteName(op.Req.Name)
		}
		subs[g].ops = append(subs[g].ops, op)
		subs[g].idx = append(subs[g].idx, i)
	}
	out := make([]BatchRsp, len(ops))
	var wg sync.WaitGroup
	for g := range subs {
		if len(subs[g].ops) == 0 {
			continue
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rsps, err := r.conns[g].CallMany(ctx, subs[g].ops)
			for j, orig := range subs[g].idx {
				if err != nil {
					out[orig] = BatchRsp{Err: err}
					continue
				}
				out[orig] = rsps[j]
			}
		}(g)
	}
	wg.Wait()
	return out, nil
}

func (r *Router) LookupMany(ctx context.Context, names [][]string) ([]BatchRsp, error) {
	ops := make([]BatchOp, len(names))
	for i, name := range names {
		ops[i] = BatchOp{Method: mLookup, Req: &Req{Name: name}}
	}
	return r.CallMany(ctx, ops)
}

func (r *Router) BindMany(ctx context.Context, binds []BindManyOp) ([]BatchRsp, error) {
	ops := make([]BatchOp, len(binds))
	for i, b := range binds {
		ops[i] = BatchOp{Method: mBind, Req: &Req{
			Name: b.Name, Obj: b.Obj, Attrs: b.Attrs, LeaseMillis: b.LeaseMillis,
		}}
	}
	return r.CallMany(ctx, ops)
}

// Close closes every group connection, returning the first error.
func (r *Router) Close() error {
	r.closeOnce.Do(func() { close(r.done) })
	var first error
	for _, c := range r.conns {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Closed reports whether any group connection has terminated (pooled
// providers then discard and redial the whole router, re-ranking each
// group's endpoints through the breaker as usual).
func (r *Router) Closed() bool {
	select {
	case <-r.done:
		return true
	default:
	}
	for _, c := range r.conns {
		if c.Closed() {
			return true
		}
	}
	return false
}

func (r *Router) Done() <-chan struct{} { return r.done }

var _ Conn = (*Router)(nil)
