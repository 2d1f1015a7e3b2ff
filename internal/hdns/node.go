package hdns

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gondi/internal/admission"
	"gondi/internal/core"
	"gondi/internal/costmodel"
	"gondi/internal/filter"
	"gondi/internal/h2o"
	"gondi/internal/jgroups"
	"gondi/internal/obs"
	"gondi/internal/rpc"
	"gondi/internal/shard"
	"gondi/internal/wal"
)

// NodeConfig configures an HDNS node.
type NodeConfig struct {
	// Group is the replication group name.
	Group string
	// Transport is the jgroups transport the node replicates over.
	Transport jgroups.Transport
	// Stack tunes the group protocol (DefaultConfig = bimodal, as in
	// the paper).
	Stack jgroups.Config
	// ListenAddr is the client-facing TCP address ("127.0.0.1:0").
	ListenAddr string
	// SnapshotPath persists the replica ("" disables persistence).
	SnapshotPath string
	// SnapshotInterval is the periodic sync period (§4.1: "synchronized
	// in fixed time intervals and upon process exit"); 0 means 5s. With a
	// WALDir it becomes the WAL fsync + compaction-check cadence — the
	// log, not the snapshot, is then the unit of durability.
	SnapshotInterval time.Duration
	// WALDir enables the per-shard write-ahead log: every applied op is
	// appended there and restart replays snapshot + WAL tail, so large
	// shards restart from their last compaction point instead of their
	// last whole-table snapshot. "" keeps snapshot-only persistence.
	WALDir string
	// CompactBytes triggers background snapshot compaction once the WAL
	// outgrows it; 0 means 8 MiB.
	CompactBytes int64
	// Shard names this group's slice of the namespace. The zero value
	// (unsharded) owns everything; a sharded node rejects ops for names
	// the ring routes elsewhere so a misconfigured client can't split a
	// prefix across groups.
	Shard shard.Assignment
	// Secret, when non-empty, must be presented by clients before
	// writes are accepted (the H2O-inherited security hook).
	Secret string
	// Costs injects calibrated service times (nil = full speed).
	Costs *costmodel.Costs
	// WriteTimeout bounds how long a write waits for its own replicated
	// delivery; 0 means 10s.
	WriteTimeout time.Duration
	// Kernel, when set, receives HDNS change events on its bus under
	// the "hdns/" topic prefix.
	Kernel *h2o.Kernel
	// Admission gates every handler; nil admits everything.
	Admission *admission.Controller
	// ReplBatch caps how many concurrently submitted writes coalesce
	// into one replicated group frame (PR 6's batch frames carried
	// across the node boundary); 0 means 64.
	ReplBatch int
	// FS is the filesystem durable state is written through; nil means
	// the real one. The durability drills slide a fault injector here.
	FS wal.FS
}

// Node is one HDNS replica.
type Node struct {
	cfg   NodeConfig
	store *Store
	pers  *persister
	ch    *jgroups.Channel
	srv   *rpc.Server

	mu        sync.Mutex
	pending   map[string]chan error // opID -> apply outcome
	watches   map[*rpc.ServerConn]map[uint64]watchSpec
	nextOp    uint64
	nextWatch uint64
	closed    bool

	// replC queues writes awaiting replication. Whichever submitter
	// finds no sender active becomes the sender and drains the queue
	// into coalesced group frames (see maybeDrain); the bound
	// propagates jgroups send-window backpressure to later submitters.
	replC       chan *Op
	replSending bool

	applied atomic.Uint64

	// damage is what scrub-on-start found; needsRepair stays true from a
	// corrupt boot until a state transfer or forced resync re-anchors the
	// store (tracked so the repair is counted exactly once).
	damage      *DamageReport
	needsRepair atomic.Bool
	repairs     atomic.Uint64

	wg   sync.WaitGroup
	done chan struct{}
}

type watchSpec struct {
	target []string
	scope  int // 0 object, 1 one-level, 2 subtree
}

// NewNode starts an HDNS node: it restores the persisted replica if any,
// joins the replication group (pulling state from the coordinator when
// one exists), and serves clients over TCP.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Group == "" {
		cfg.Group = "hdns"
	}
	if cfg.SnapshotInterval <= 0 {
		cfg.SnapshotInterval = 5 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.Stack.HeartbeatInterval == 0 {
		cfg.Stack = jgroups.DefaultConfig()
	}
	if cfg.ReplBatch <= 0 {
		cfg.ReplBatch = 64
	}
	// Crash recovery (§4.1 "the service can thus recover the state after
	// a complete shutdown/restart"): restore the snapshot, then replay
	// the WAL tail past it when a WALDir is configured. A boot whose
	// clean-shutdown marker is missing scrubs instead of replaying:
	// verified damage is quarantined and the node starts degraded,
	// repairing from the group rather than refusing to start.
	pers, store, damage, err := openPersistence(cfg.FS, cfg.SnapshotPath, cfg.WALDir, cfg.CompactBytes)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:     cfg,
		store:   store,
		pers:    pers,
		damage:  damage,
		pending: map[string]chan error{},
		watches: map[*rpc.ServerConn]map[uint64]watchSpec{},
		replC:   make(chan *Op, 2*cfg.ReplBatch),
		done:    make(chan struct{}),
	}
	if damage.Corrupt() {
		// Arm the repair before Connect: joining an existing group pulls
		// state via SetState, which is the repair itself.
		n.needsRepair.Store(true)
		gQuarantined.Add(int64(len(damage.WALQuarantined)))
		if damage.SnapshotQuarantined != "" {
			gQuarantined.Add(1)
		}
	}
	n.ch = jgroups.NewChannel(cfg.Transport, cfg.Stack)
	recv := jgroups.Receiver{
		Deliver:  n.deliver,
		GetState: n.snapshotState,
		// Partial-failure recovery: a restarted node joining an
		// existing group replaces its (possibly stale) local state
		// with the group's.
		SetState: n.restoreState,
		Merge:    n.onMerge,
	}
	if err := n.ch.Connect(cfg.Group, recv); err != nil {
		return nil, err
	}
	srv, err := rpc.NewServer(cfg.ListenAddr)
	if err != nil {
		n.ch.Close()
		return nil, err
	}
	n.srv = srv
	n.registerHandlers()
	srv.OnConnClose(func(sc *rpc.ServerConn) {
		n.mu.Lock()
		delete(n.watches, sc)
		n.mu.Unlock()
	})
	n.wg.Add(1)
	go n.housekeeping()
	return n, nil
}

// Addr returns the client-facing TCP address.
func (n *Node) Addr() string { return n.srv.Addr() }

// Store exposes the local replica (tests and diagnostics).
func (n *Node) Store() *Store { return n.store }

// Channel exposes the group channel (tests and diagnostics).
func (n *Node) Channel() *jgroups.Channel { return n.ch }

// snapshotState serves jgroups state transfer.
func (n *Node) snapshotState() []byte {
	// A node still pending repair must never donate state: its store is
	// known-incomplete, and a merge that elects it primary (membership
	// tie, smaller address) would otherwise overwrite healthy replicas
	// with the quarantine survivors. Refusing (nil state) makes the
	// requester keep what it has.
	if n.needsRepair.Load() {
		return nil
	}
	b, err := n.store.Snapshot()
	if err != nil {
		return nil
	}
	return b
}

func (n *Node) restoreState(b []byte) {
	if len(b) == 0 {
		return
	}
	_ = n.store.Restore(b)
	// The transferred tree replaces local history wholesale, so the
	// local WAL now describes an abandoned lineage; snapshot the new
	// state and drop the old log before any new record is appended.
	n.pers.resetAfterStateTransfer(n.store)
	// If this boot quarantined corrupt state, the transfer is its
	// repair: the store is now anchored to the group's history again.
	n.markRepaired("state-transfer")
}

func (n *Node) onMerge(e jgroups.MergeEvent) {
	// Non-primary members were already resynchronized via SetState by
	// the channel (PRIMARY PARTITION, §4.3). Publish for observability.
	if n.cfg.Kernel != nil {
		n.cfg.Kernel.Publish("hdns/merge", e)
	}
}

// opEnvelope is the replication wire unit: one group frame carrying one
// or more ops. Coalescing concurrently submitted writes into a single
// multicast is PR 6's batch-frame discipline extended across the node
// boundary — N queued writes cost one send (and one credit against the
// jgroups window) instead of N.
type opEnvelope struct {
	Ops []Op
}

var mReplBatch = obs.Default.Histogram("gondi_hdns_repl_batch_ops",
	"Ops coalesced per replicated HDNS group frame (count encoded as µs).")

// gQuarantined tracks durable files quarantined by scrub-on-start and
// not yet superseded by a repair — non-zero means some node in this
// process is serving from incomplete local state.
var gQuarantined = obs.Default.Gauge("gondi_store_quarantined_files",
	"Durable files quarantined by scrub-on-start, pending repair.")

// markRepaired counts one completed durable-state repair and retires the
// node's quarantine contribution from the gauge. source is
// "state-transfer" (re-anchored from a healthy replica) or "resync"
// (mirror destination rebuilt from its sync source).
func (n *Node) markRepaired(source string) {
	if !n.needsRepair.CompareAndSwap(true, false) {
		return
	}
	n.repairs.Add(1)
	obs.Default.Counter("gondi_store_repairs_total",
		"Durable-state repairs completed after corruption quarantine.",
		obs.Label{K: "source", V: source}).Inc()
	q := int64(len(n.damage.WALQuarantined))
	if n.damage.SnapshotQuarantined != "" {
		q++
	}
	gQuarantined.Add(-q)
}

// NeedsRepair reports whether scrub-on-start quarantined state that no
// repair has yet superseded.
func (n *Node) NeedsRepair() bool { return n.needsRepair.Load() }

// Damage returns what scrub-on-start found (never nil; check Corrupt).
func (n *Node) Damage() *DamageReport { return n.damage }

// Repairs reports completed durable-state repairs on this node.
func (n *Node) Repairs() uint64 { return n.repairs.Load() }

// MarkResynced records that a forced mirror resync rebuilt this node's
// state — the mirror-destination repair path, driven by hdnsd when the
// node boots corrupt and has a sync source instead of replicas. The
// resynced tree is snapshotted and the abandoned WAL lineage dropped,
// exactly as after a state transfer.
func (n *Node) MarkResynced() {
	if !n.needsRepair.Load() {
		return
	}
	n.pers.resetAfterStateTransfer(n.store)
	n.markRepaired("resync")
}

// deliver applies a replicated frame on this replica, acking each op.
func (n *Node) deliver(src jgroups.Address, payload []byte) {
	var env opEnvelope
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&env); err != nil {
		return
	}
	for i := range env.Ops {
		op := &env.Ops[i]
		changes, version, errStr := n.store.ApplyVersioned(op)
		err := storeErr(errStr)
		// Log failures too: they consumed a version, and replay must
		// reproduce the exact version stream to detect real gaps. A
		// sealed log (ENOSPC, failed fsync) turns the ack into storage
		// unavailability: the op is applied in memory and on the other
		// replicas, but this node cannot promise it durable, and a client
		// told "ok" must never lose the write to a local power cut.
		if aerr := n.pers.appendOp(version, op); aerr != nil && errors.Is(aerr, wal.ErrSealed) && err == nil {
			err = n.unavailable(errStorageUnavailable)
		}
		n.applied.Add(1)
		n.mu.Lock()
		if ch, ok := n.pending[op.ID]; ok {
			delete(n.pending, op.ID)
			ch <- err
		}
		n.mu.Unlock()
		for _, c := range changes {
			n.fanOut(c)
		}
	}
}

// replBatchBytes bounds a coalesced frame's payload so it stays well
// inside one UDP datagram on the multi-process transport.
const replBatchBytes = 32 << 10

// maybeDrain elects the calling submitter as the replication sender if
// none is active and drains replC into coalesced multicast frames.
// Submitters that lose the election return immediately — their op rides
// the active sender's next frame, so an uncontended write pays no extra
// goroutine hop while concurrent writes batch. When the jgroups send
// window is exhausted, Send blocks the sender here, replC fills, and
// later submitters block in turn: replica backpressure reaches the
// client instead of growing a queue.
func (n *Node) maybeDrain() {
	n.mu.Lock()
	if n.replSending {
		n.mu.Unlock()
		return
	}
	n.replSending = true
	n.mu.Unlock()
	for {
		var ops []Op
		size := 0
	collect:
		for len(ops) < n.cfg.ReplBatch && size < replBatchBytes {
			select {
			case op := <-n.replC:
				ops = append(ops, *op)
				size += len(op.Obj)
			default:
				break collect
			}
		}
		if len(ops) == 0 {
			n.mu.Lock()
			n.replSending = false
			// An op enqueued between the empty read above and clearing
			// the flag would otherwise strand (its submitter saw an
			// active sender and returned).
			if len(n.replC) == 0 {
				n.mu.Unlock()
				return
			}
			n.replSending = true
			n.mu.Unlock()
			continue
		}
		mReplBatch.Observe(time.Duration(len(ops)) * time.Microsecond)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&opEnvelope{Ops: ops}); err != nil {
			n.failOps(ops, err)
			continue
		}
		if err := n.ch.Send(buf.Bytes()); err != nil {
			n.failOps(ops, err)
		}
	}
}

// failOps settles every submitter in a frame that never made it out.
func (n *Node) failOps(ops []Op, err error) {
	err = n.replErr(err)
	n.mu.Lock()
	for i := range ops {
		if ch, ok := n.pending[ops[i].ID]; ok {
			delete(n.pending, ops[i].ID)
			ch <- err
		}
	}
	n.mu.Unlock()
}

// fanOut pushes a change to matching client watches and the kernel bus.
func (n *Node) fanOut(c Change) {
	if n.cfg.Kernel != nil {
		n.cfg.Kernel.Publish("hdns/"+c.Kind.String(), c)
	}
	type target struct {
		conn *rpc.ServerConn
		id   uint64
	}
	var targets []target
	n.mu.Lock()
	for conn, ws := range n.watches {
		for id, w := range ws {
			if watchMatches(w, c.Name) {
				targets = append(targets, target{conn, id})
			}
		}
	}
	n.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	var buf []byte // Push has written the frame when it returns
	for _, t := range targets {
		msg := EventMsg{WatchID: t.id, Kind: c.Kind, Name: c.Name, Obj: c.Obj, Old: c.Old}
		buf = appendEvent(buf[:0], &msg)
		_ = t.conn.Push(mEvent, buf)
	}
}

func watchMatches(w watchSpec, name []string) bool {
	if len(name) < len(w.target) {
		return false
	}
	for i, c := range w.target {
		if name[i] != c {
			return false
		}
	}
	extra := len(name) - len(w.target)
	switch w.scope {
	case 0:
		return extra == 0
	case 1:
		return extra == 1
	default:
		return true
	}
}

// submit replicates a write and waits for its local delivery.
func (n *Node) submit(op *Op) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return n.unavailable(errNodeClosed)
	}
	n.nextOp++
	op.ID = fmt.Sprintf("%s-%d", n.ch.Addr(), n.nextOp)
	op.Now = time.Now().UnixMilli()
	ack := make(chan error, 1)
	n.pending[op.ID] = ack
	n.mu.Unlock()

	// Queue the op for coalescing. The queue is bounded: when
	// replication stalls (send window full), this blocks until
	// WriteTimeout rather than queueing without limit.
	select {
	case n.replC <- op:
	case <-time.After(n.cfg.WriteTimeout):
		n.mu.Lock()
		delete(n.pending, op.ID)
		n.mu.Unlock()
		return errWriteTimeout
	case <-n.done:
		n.mu.Lock()
		delete(n.pending, op.ID)
		n.mu.Unlock()
		return n.unavailable(errNodeClosed)
	}
	n.maybeDrain()
	select {
	case err := <-ack:
		return err
	case <-time.After(n.cfg.WriteTimeout):
		n.mu.Lock()
		delete(n.pending, op.ID)
		n.mu.Unlock()
		return errWriteTimeout
	case <-n.done:
		return n.unavailable(errNodeClosed)
	}
}

// housekeeping runs snapshots and the lease reaper. The reaper runs
// inline, so a pass still waiting for an ack delays the next one rather
// than overlapping it.
func (n *Node) housekeeping() {
	defer n.wg.Done()
	snap := time.NewTicker(n.cfg.SnapshotInterval)
	defer snap.Stop()
	leases := time.NewTicker(500 * time.Millisecond)
	defer leases.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-snap.C:
			_ = n.persist()
			n.pers.maybeCompact(n.store)
		case <-leases.C:
			// The coordinator reaps expired leases for the whole
			// group so that exactly one replica issues the expiry.
			if n.ch.IsCoordinator() {
				n.reap(n.store.ExpiredLeases(time.Now().UnixMilli()))
			}
		}
	}
}

// reap expires the names a lease scan found due. Each OpExpire re-checks
// the lease when it applies, so a renewal or rebind sequenced after the
// scan keeps its name. A failed submit ends the pass: the names left are
// still due, and the next pass retries them.
func (n *Node) reap(names [][]string) {
	for _, name := range names {
		if n.submit(&Op{Kind: OpExpire, Name: name}) != nil {
			return
		}
	}
}

// persist syncs durable state on the housekeeping tick. Without a WAL
// this is the paper's periodic whole-table snapshot; with one, the far
// cheaper fsync of appended records (the snapshot then only advances at
// compaction and exit).
func (n *Node) persist() error {
	if n.pers.log != nil {
		n.pers.sync()
		return nil
	}
	return n.pers.writeSnapshot(n.store)
}

// SyncDurable forces the housekeeping durability pass now: an fsync of
// the WAL tail (or, without a WAL, a full snapshot). After it returns,
// every previously acked write survives power loss.
func (n *Node) SyncDurable() error { return n.persist() }

// Kill stops the node abruptly — no exit-time snapshot, no WAL rotate,
// no clean-shutdown marker — leaving the durable state exactly as the
// last synced append wrote it, the way a power cut would. Crash-drill
// and conformance-test surface.
func (n *Node) Kill() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	n.mu.Unlock()
	close(n.done)
	n.wg.Wait()
	if n.pers.log != nil {
		_ = n.pers.log.Close()
	}
	n.srv.Close()
	_ = n.ch.Close()
}

// Close persists the replica (§4.1: "upon process exit"), leaves the
// group, and stops serving.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	close(n.done)
	n.wg.Wait()
	err := n.pers.close(n.store)
	n.srv.Close()
	if cerr := n.ch.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- RPC handlers ---

func (n *Node) authed(sc *rpc.ServerConn) bool {
	if n.cfg.Secret == "" {
		return true
	}
	v, _ := sc.Get("authed")
	ok, _ := v.(bool)
	return ok
}

// Node failures. Each semantic one wraps the core error it stands for,
// which is what crosses the wire (as an rpc status) and what clients
// test with errors.Is/errors.As.
var (
	errDenied    = fmt.Errorf("hdns: authentication required: %w", core.ErrNoPermission)
	errBadSecret = fmt.Errorf("hdns: bad secret: %w", core.ErrNoPermission)
	// errWrongShard guards against split prefixes: a sharded node refuses
	// ops for names the ring routes to another group, so a client with a
	// stale or hand-rolled routing table fails loudly instead of
	// scattering one prefix across groups.
	errWrongShard = errors.New("hdns: wrong shard")
	// errStorageUnavailable refuses a write this replica applied in memory
	// but could not append to its sealed WAL (ENOSPC, failed fsync): the
	// node will not promise durability it cannot deliver.
	errStorageUnavailable = errors.New("hdns: storage unavailable (wal sealed)")
	errNodeClosed         = errors.New("node closed")
	errWriteTimeout       = errors.New("write timed out")
)

// storeErr gives a store error its core error: the one place an hdns
// failure acquires its type. Text outside the store's vocabulary stays an
// internal failure.
func storeErr(errStr string) error {
	switch errStr {
	case "":
		return nil
	case errNotFound:
		return core.ErrNotFound
	case errBound:
		return core.ErrAlreadyBound
	case errNotCtx:
		return core.ErrNotContext
	case errCtxNotEmpty:
		return core.ErrContextNotEmpty
	case errEmptyName:
		return core.ErrInvalidNameEmpty
	case errUnsupportedK:
		return core.ErrNotSupported
	}
	return errors.New(errStr)
}

// unavailable is a refusal that says "go elsewhere": wrong shard or a
// sealed WAL. Callers fail over or back off instead of treating it as a
// naming answer.
func (n *Node) unavailable(reason error) error {
	return &core.ServiceUnavailableError{Endpoint: n.Addr(), Err: reason}
}

// replErr types a send the group refused. A send window that stayed
// full is busy: retry once heartbeats have carried acks. A closed,
// unjoined or never-settling group is unavailable here.
func (n *Node) replErr(err error) error {
	switch {
	case errors.Is(err, jgroups.ErrSendWindowFull):
		return &core.ServerBusyError{Endpoint: n.Addr(), Op: "replicate", RetryAfter: n.cfg.Stack.HeartbeatInterval}
	case errors.Is(err, jgroups.ErrFlushTimeout), errors.Is(err, jgroups.ErrChanClosed),
		errors.Is(err, jgroups.ErrNotConnected):
		return n.unavailable(err)
	}
	return err
}

func (n *Node) guardShard(name []string) error {
	if n.cfg.Shard.Owns(name) {
		return nil
	}
	return n.unavailable(errWrongShard)
}

// stationBusyRetryAfter is the hint attached when a calibrated cost
// station's queue cap rejects work (the station has no drain estimate of
// its own; admission-controller sheds carry a measured one).
const stationBusyRetryAfter = 25 * time.Millisecond

func (n *Node) busy(op string) error {
	return &core.ServerBusyError{Endpoint: n.Addr(), Op: op, RetryAfter: stationBusyRetryAfter}
}

func (n *Node) registerHandlers() {
	h := func(name string, class admission.Class, fn func(sc *rpc.ServerConn, req *Req) (*Rsp, error)) {
		reqs := obs.Default.Counter("gondi_server_requests_total",
			"Server-side requests handled, by protocol.",
			obs.Label{K: "proto", V: "hdns"}, obs.Label{K: "method", V: name})
		lat := obs.Default.Histogram("gondi_server_request_seconds",
			"Server-side request handling latency, by protocol.",
			obs.Label{K: "proto", V: "hdns"}, obs.Label{K: "method", V: name})
		n.srv.Handle(name, func(sc *rpc.ServerConn, body []byte) ([]byte, error) {
			release, aerr := n.cfg.Admission.Admit(class, n.Addr(), name)
			if aerr != nil {
				return nil, aerr
			}
			defer release()
			start := time.Now()
			req, err := decodeReq(body)
			if err != nil {
				return nil, err
			}
			rsp, err := fn(sc, req)
			reqs.Inc()
			lat.Since(start)
			if err != nil {
				return nil, err
			}
			// rpc writes the body after this handler returns, so it cannot
			// come from a pool; size it for the common (lookup) answer.
			return appendRsp(make([]byte, 0, 64+len(rsp.View.Obj)), rsp), nil
		})
	}

	h(mAuth, admission.Read, func(sc *rpc.ServerConn, req *Req) (*Rsp, error) {
		if n.cfg.Secret != "" && req.Secret != n.cfg.Secret {
			return nil, errBadSecret
		}
		sc.Set("authed", true)
		return &Rsp{}, nil
	})

	h(mLookup, admission.Read, func(sc *rpc.ServerConn, req *Req) (*Rsp, error) {
		if err := n.guardShard(req.Name); err != nil {
			return nil, err
		}
		if !n.cfg.Costs.ReadCost(0) {
			return nil, n.busy(mLookup)
		}
		return &Rsp{View: n.store.Lookup(req.Name)}, nil
	})

	write := func(name string, kind OpKind) func(sc *rpc.ServerConn, req *Req) (*Rsp, error) {
		return func(sc *rpc.ServerConn, req *Req) (*Rsp, error) {
			if !n.authed(sc) {
				return nil, errDenied
			}
			if err := n.guardShard(req.Name); err != nil {
				return nil, err
			}
			// Rename must stay within one shard; the router emulates the
			// cross-group case as lookup+bind+unbind.
			if kind == OpRename {
				if err := n.guardShard(req.Name2); err != nil {
					return nil, err
				}
			}
			if !n.cfg.Costs.WriteCost(len(req.Obj)) {
				return nil, n.busy(name)
			}
			op := &Op{
				Kind: kind, Name: req.Name, Name2: req.Name2, Obj: req.Obj,
				Attrs: req.Attrs, ReplaceAttrs: req.ReplaceAttrs,
				Mods: req.Mods, LeaseMillis: req.LeaseMillis,
			}
			if err := n.submit(op); err != nil {
				return nil, err
			}
			rsp := &Rsp{}
			if req.LeaseMillis > 0 {
				rsp.Expiry = time.Now().UnixMilli() + req.LeaseMillis
			}
			return rsp, nil
		}
	}
	h(mBind, admission.Write, write(mBind, OpBind))
	h(mRebind, admission.Write, write(mRebind, OpRebind))
	h(mUnbind, admission.Write, write(mUnbind, OpUnbind))
	h(mRename, admission.Write, write(mRename, OpRename))
	h(mCreateCtx, admission.Write, write(mCreateCtx, OpCreateCtx))
	h(mDestroyCtx, admission.Write, write(mDestroyCtx, OpDestroyCtx))
	h(mModAttrs, admission.Write, write(mModAttrs, OpModAttrs))
	h(mLease, admission.Write, write(mLease, OpLeaseRenew))

	h(mList, admission.Read, func(sc *rpc.ServerConn, req *Req) (*Rsp, error) {
		if err := n.guardShard(req.Name); err != nil {
			return nil, err
		}
		if !n.cfg.Costs.ReadCost(0) {
			return nil, n.busy(mList)
		}
		list, errStr := n.store.List(req.Name)
		if err := storeErr(errStr); err != nil {
			return nil, err
		}
		return &Rsp{List: list}, nil
	})

	h(mSearch, admission.Search, func(sc *rpc.ServerConn, req *Req) (*Rsp, error) {
		if err := n.guardShard(req.Name); err != nil {
			return nil, err
		}
		if !n.cfg.Costs.ReadCost(0) {
			return nil, n.busy(mSearch)
		}
		f, err := filter.Parse(req.Filter)
		if err != nil {
			return nil, err
		}
		hits, errStr := n.store.Search(req.Name, f, req.Scope, req.Limit)
		if err := storeErr(errStr); err != nil {
			return nil, err
		}
		return &Rsp{Hits: hits}, nil
	})

	h(mWatch, admission.Read, func(sc *rpc.ServerConn, req *Req) (*Rsp, error) {
		n.mu.Lock()
		defer n.mu.Unlock()
		n.nextWatch++
		id := n.nextWatch
		ws := n.watches[sc]
		if ws == nil {
			ws = map[uint64]watchSpec{}
			n.watches[sc] = ws
		}
		ws[id] = watchSpec{target: req.Name, scope: req.Scope}
		return &Rsp{WatchID: id}, nil
	})

	h(mUnwatch, admission.Read, func(sc *rpc.ServerConn, req *Req) (*Rsp, error) {
		n.mu.Lock()
		defer n.mu.Unlock()
		if ws := n.watches[sc]; ws != nil {
			delete(ws, req.WatchID)
		}
		return &Rsp{}, nil
	})

	h(mInfo, admission.Read, func(sc *rpc.ServerConn, req *Req) (*Rsp, error) {
		view := n.ch.View()
		info := NodeInfo{
			Addr:        n.Addr(),
			Group:       n.cfg.Group,
			Coordinator: n.ch.IsCoordinator(),
			Entries:     n.store.Len(),
			Version:     n.store.Version(),
			Mode:        n.cfg.Stack.Mode.String(),
			ShardGroups: n.cfg.Shard.Groups,
			ShardIndex:  n.cfg.Shard.Index,
			WALBytes:    n.pers.walBytes(),
			NeedsRepair: n.needsRepair.Load(),
			Repairs:     n.repairs.Load(),
		}
		if n.damage.Corrupt() {
			info.Quarantined = len(n.damage.WALQuarantined)
			if n.damage.SnapshotQuarantined != "" {
				info.Quarantined++
			}
		}
		if view != nil {
			for _, m := range view.Members {
				info.Members = append(info.Members, string(m))
			}
		}
		return &Rsp{Info: info}, nil
	})
}
