// Package sync is the cross-registry synchronization engine: it
// incrementally mirrors a subtree of any source provider (an LDAP DIT,
// a DNS zone, a Jini LUS, another HDNS deployment) into a local
// provider — canonically a sharded HDNS group — so the federation keeps
// serving reads through a full origin outage.
//
// This is the maturity step beyond query federation: the paper's
// InitialContext dispatches every operation to the live backend, so an
// origin's subtree vanishes with the origin (the cache's serve-stale
// window is a seconds-scale bridge). A Mirror materializes the subtree
// locally and keeps it converged:
//
//   - Event-driven where the source supports core.EventContext: a
//     subtree watch is registered before the initial snapshot, and every
//     event is applied by re-reading the source at the event's path, so
//     event/snapshot races resolve to the source's current state
//     (source-wins) regardless of delivery order.
//   - Delta pulls where it doesn't: each cycle asks the source for a
//     change cursor (CursorSource — the DNS SOA serial, the HDNS store
//     version) and skips the walk when the cursor is unchanged.
//
// Every loop is crash-safe and self-healing: the cursor and deletion
// tombstones are persisted through internal/wal and replayed on restart,
// failed cycles back off through internal/retry (honoring RetryAfter
// sheds), and EventWatchLost triggers resubscribe-and-resync. Reads
// fall back to the mirror when the origin is unreachable — see
// Register and core.WithMirrorFallback.
package sync

import (
	"context"
	"errors"
	"fmt"
	"sort"
	stdsync "sync"
	"sync/atomic"
	"time"

	"gondi/internal/core"
	"gondi/internal/failover"
	"gondi/internal/obs"
	"gondi/internal/retry"
)

// Environment knob: a Mirror tags its provider connections with this
// pool ID suffix so mirror traffic never shares a wire connection with
// (and never inherits breaker state tangled up by) foreground traffic.
const poolSuffix = "sync-mirror"

// CursorSource is the structural capability a source context may expose
// for cheap change detection: an opaque cursor that moves whenever the
// subtree at name may have changed. ok=false means the source cannot
// cursor that name (the Mirror then walks unconditionally each cycle).
// dnssp (SOA serial) and hdnssp (store version) implement it; the obs
// instrumentation wrapper forwards it.
type CursorSource interface {
	SyncCursor(ctx context.Context, name string) (cursor string, ok bool, err error)
}

// Config describes one mirror.
type Config struct {
	// Name identifies the mirror in metrics, status and logs. Defaults
	// to the source URL.
	Name string
	// SourceURL is the subtree to mirror, as a provider URL
	// ("dns://ns1/global/emory", "hdns://n1:7001|n2:7001/services").
	SourceURL string
	// DestURL is where the replica materializes. The path is created if
	// missing. The destination provider must support writes (DirContext).
	DestURL string
	// Env is the environment for both provider opens (secrets, leases).
	// The Mirror adds its own pool ID so mirror connections are never
	// shared with foreground traffic.
	Env map[string]any
	// Interval paces delta-pull cycles (and watch-mode anti-entropy
	// checks). <=0 defaults to 2s.
	Interval time.Duration
	// WALDir persists the sync cursor and tombstones for crash-safe
	// resume. Empty keeps them in memory only.
	WALDir string
	// Retry backs failed sync cycles off; the zero value uses the retry
	// package defaults. RetryAfter hints from source sheds are honored.
	Retry retry.Policy
}

// Status is a point-in-time view of one mirror, JSON-shaped for
// /debug/vars and `fedctl sync`.
type Status struct {
	Name      string    `json:"name"`
	Source    string    `json:"source"`
	Dest      string    `json:"dest"`
	Mode      string    `json:"mode"` // "watch" or "poll"
	Cursor    string    `json:"cursor,omitempty"`
	Cycles    uint64    `json:"cycles"`
	Skipped   uint64    `json:"skipped"` // cycles skipped on an unchanged cursor
	Applied   uint64    `json:"applied"` // entries written to the dest
	Deleted   uint64    `json:"deleted"` // entries removed from the dest
	Resyncs   uint64    `json:"resyncs"` // full snapshot/diff walks
	WatchLost uint64    `json:"watch_lost"`
	Serves    uint64    `json:"mirror_serves"` // reads answered by this mirror
	Tombs     int       `json:"tombstones"`
	LastSync  time.Time `json:"last_sync"`
	LagMs     int64     `json:"lag_ms"` // now - last successful sync
	LastError string    `json:"last_error,omitempty"`
}

// Mirror is one running synchronization loop plus the materialized
// replica it maintains.
type Mirror struct {
	cfg  Config
	name string

	srcScheme    string
	srcAuthority string
	srcBase      core.Name

	destRoot core.Context
	destDir  core.DirContext
	destBase core.Name

	mu       stdsync.Mutex
	src      core.Context // current source root, nil when unreachable
	cursor   string
	tombs    map[string]time.Time
	lastSync time.Time
	lastErr  string
	mode     string
	journal  *journal

	cycles, skipped, applied, deleted atomic.Uint64
	resyncs, watchLost, serves        atomic.Uint64

	resyncReq chan chan error
	cancel    context.CancelFunc
	done      chan struct{}
	started   bool
	stopped   bool

	mCycles, mCycleErrs, mApplied, mDeleted *obs.Counter
	mResyncs, mWatchLost, mSkipped          *obs.Counter
	gLagMs                                  *obs.Gauge
}

// New validates cfg, restores persisted cursor/tombstone state from the
// WAL (if any), and opens the destination, creating the target path.
// The sync loop starts with Start.
func New(ctx context.Context, cfg Config) (*Mirror, error) {
	if cfg.SourceURL == "" || cfg.DestURL == "" {
		return nil, fmt.Errorf("sync: both SourceURL and DestURL are required")
	}
	su, err := core.ParseURLName(cfg.SourceURL)
	if err != nil {
		return nil, fmt.Errorf("sync: source: %w", err)
	}
	if cfg.Name == "" {
		cfg.Name = cfg.SourceURL
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	m := &Mirror{
		cfg:          cfg,
		name:         cfg.Name,
		srcScheme:    su.Scheme,
		srcAuthority: su.Authority,
		srcBase:      su.Path,
		tombs:        map[string]time.Time{},
		resyncReq:    make(chan chan error, 1),
	}
	lbl := obs.Label{K: "mirror", V: m.name}
	m.mCycles = obs.Default.Counter("gondi_sync_cycles_total", "Sync cycles run, by mirror.", lbl)
	m.mCycleErrs = obs.Default.Counter("gondi_sync_cycle_errors_total", "Sync cycles that failed, by mirror.", lbl)
	m.mApplied = obs.Default.Counter("gondi_sync_applied_total", "Entries written to the mirror destination.", lbl)
	m.mDeleted = obs.Default.Counter("gondi_sync_deleted_total", "Entries removed from the mirror destination.", lbl)
	m.mResyncs = obs.Default.Counter("gondi_sync_resyncs_total", "Full snapshot/diff resync walks.", lbl)
	m.mWatchLost = obs.Default.Counter("gondi_sync_watch_lost_total", "Source watch registrations lost and re-established.", lbl)
	m.mSkipped = obs.Default.Counter("gondi_sync_skipped_total", "Cycles skipped on an unchanged source cursor.", lbl)
	m.gLagMs = obs.Default.Gauge("gondi_sync_lag_ms", "Milliseconds since the mirror last converged with its source.", lbl)

	if cfg.WALDir != "" {
		j, err := openJournal(cfg.WALDir)
		if err != nil {
			return nil, fmt.Errorf("sync: journal: %w", err)
		}
		m.journal = j
		cur, tombs, err := j.replay()
		if err != nil {
			j.close()
			return nil, fmt.Errorf("sync: journal replay: %w", err)
		}
		m.cursor, m.tombs = cur, tombs
	}

	env := m.env()
	destRoot, destBase, err := core.OpenURL(ctx, cfg.DestURL, env)
	if err != nil {
		m.closeJournal()
		return nil, fmt.Errorf("sync: open dest %s: %w", cfg.DestURL, err)
	}
	dd, ok := destRoot.(core.DirContext)
	if !ok {
		destRoot.Close()
		m.closeJournal()
		return nil, fmt.Errorf("sync: dest %s does not support directory writes", cfg.DestURL)
	}
	m.destRoot, m.destDir, m.destBase = destRoot, dd, destBase
	if err := m.ensureDestBase(ctx); err != nil {
		destRoot.Close()
		m.closeJournal()
		return nil, fmt.Errorf("sync: create dest path: %w", err)
	}
	return m, nil
}

// env returns the provider environment for this mirror's connections:
// the caller's Env plus a mirror-owned pool ID, so mirror wire traffic
// is isolated from foreground connections.
func (m *Mirror) env() map[string]any {
	env := make(map[string]any, len(m.cfg.Env)+1)
	for k, v := range m.cfg.Env {
		env[k] = v
	}
	pool := poolSuffix + "/" + m.name
	if p, ok := env[core.EnvPoolID]; ok {
		pool = fmt.Sprintf("%v/%s", p, pool)
	}
	env[core.EnvPoolID] = pool
	return env
}

// ensureDestBase creates the destination path, component by component.
func (m *Mirror) ensureDestBase(ctx context.Context) error {
	for i := 1; i <= m.destBase.Size(); i++ {
		_, err := m.destDir.CreateSubcontext(ctx, m.destBase.Prefix(i).String())
		if err != nil && !errors.Is(err, core.ErrAlreadyBound) {
			return err
		}
	}
	return nil
}

// Start launches the sync loop and registers the mirror for fallback
// serving. The loop runs until Stop (or ctx cancellation).
func (m *Mirror) Start(ctx context.Context) error {
	m.mu.Lock()
	if m.started {
		m.mu.Unlock()
		return fmt.Errorf("sync: mirror %s already started", m.name)
	}
	m.started = true
	m.mu.Unlock()
	lctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	m.cancel = cancel
	m.done = make(chan struct{})
	registerMirror(m)
	publishStatus()
	go m.run(lctx)
	return nil
}

// Stop halts the loop, unregisters the mirror from fallback serving,
// flushes the journal, and closes the provider connections. The
// materialized replica stays in the destination. Idempotent.
func (m *Mirror) Stop() error {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return nil
	}
	m.stopped = true
	started := m.started
	m.started = false
	m.mu.Unlock()
	if started && m.cancel != nil {
		m.cancel()
		<-m.done
	}
	unregisterMirror(m)
	m.mu.Lock()
	if m.src != nil {
		m.src.Close()
		m.src = nil
	}
	m.mu.Unlock()
	m.closeJournal()
	return m.destRoot.Close()
}

func (m *Mirror) closeJournal() {
	m.mu.Lock()
	j := m.journal
	m.journal = nil
	m.mu.Unlock()
	if j != nil {
		j.close()
	}
}

// Status reports the mirror's current state.
func (m *Mirror) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Status{
		Name:      m.name,
		Source:    m.cfg.SourceURL,
		Dest:      m.cfg.DestURL,
		Mode:      m.mode,
		Cursor:    m.cursor,
		Cycles:    m.cycles.Load(),
		Skipped:   m.skipped.Load(),
		Applied:   m.applied.Load(),
		Deleted:   m.deleted.Load(),
		Resyncs:   m.resyncs.Load(),
		WatchLost: m.watchLost.Load(),
		Serves:    m.serves.Load(),
		Tombs:     len(m.tombs),
		LastSync:  m.lastSync,
		LastError: m.lastErr,
	}
	if !m.lastSync.IsZero() {
		s.LagMs = time.Since(m.lastSync).Milliseconds()
	} else {
		s.LagMs = -1 // never synced
	}
	return s
}

// Resync forces one full snapshot/diff cycle through the sync loop and
// waits for it (tests, fedctl, post-outage drills).
func (m *Mirror) Resync(ctx context.Context) error {
	done := make(chan error, 1)
	select {
	case m.resyncReq <- done:
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// --- the sync loop ------------------------------------------------------

// event is one queued source notification.
type event struct {
	typ  core.EventType
	name string
}

const eventBuffer = 4096

// run is the mirror's single loop: all source reads and destination
// writes happen here, serially, so conflict resolution is a total order.
func (m *Mirror) run(ctx context.Context) {
	defer close(m.done)
	events := make(chan event, eventBuffer)
	var overflow atomic.Bool
	var unwatch func()
	defer func() {
		if unwatch != nil {
			unwatch()
		}
	}()

	// establish (re)opens the source, prefers watch mode, and runs the
	// initial full resync. Retried with backoff until ctx ends.
	// Re-establishing over a live prior registration means that watch
	// died with its transport — however the loop noticed (an explicit
	// EventWatchLost, a failed liveness probe, or a transport error on
	// an event apply) — so the lost-watch accounting lives here, once
	// per re-establishment.
	establish := func() {
		if unwatch != nil {
			m.watchLost.Add(1)
			m.mWatchLost.Inc()
		}
		attempt := func() error {
			src, err := m.ensureSource(ctx)
			if err != nil {
				return err
			}
			if unwatch != nil {
				unwatch()
				unwatch = nil
			}
			// Watch BEFORE the snapshot: events racing the walk are
			// applied by re-reading the source, so the order resolves
			// to the source's current state either way.
			if ec, ok := src.(core.EventContext); ok {
				cancel, werr := ec.Watch(ctx, m.srcBase.String(), core.ScopeSubtree, func(e core.NamingEvent) {
					select {
					case events <- event{typ: e.Type, name: e.Name}:
					default:
						overflow.Store(true)
					}
				})
				if werr == nil {
					unwatch = cancel
					m.setMode("watch")
				} else if errors.Is(werr, core.ErrNotSupported) {
					m.setMode("poll")
				} else {
					return werr
				}
			} else {
				m.setMode("poll")
			}
			return m.resync(ctx)
		}
		for ctx.Err() == nil {
			err := retry.DoClassify(ctx, m.cfg.Retry, failover.TransportClass, func() error {
				err := attempt()
				m.noteCycle(err)
				return err
			})
			if err == nil {
				return
			}
			m.dropSource()
			// Out of retry budget: pause one interval, then re-dial.
			if !sleepCtx(ctx, m.cfg.Interval) {
				return
			}
		}
	}

	establish()
	tick := time.NewTicker(m.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case ev := <-events:
			if ev.typ == core.EventWatchLost {
				drainEvents(events)
				overflow.Store(false)
				m.dropSource()
				establish()
				continue
			}
			if err := m.applyEvent(ctx, ev); err != nil {
				m.noteCycle(err)
				if failover.TransportClass(err) {
					m.dropSource()
					establish()
				}
			} else {
				m.noteCycle(nil)
			}
		case done := <-m.resyncReq:
			err := m.cycle(ctx, true)
			m.noteCycle(err)
			done <- err
			if err != nil && failover.TransportClass(err) {
				m.dropSource()
			}
		case <-tick.C:
			if overflow.Swap(false) {
				// The event buffer overflowed: some updates were dropped,
				// so only a full walk restores convergence.
				if err := m.resync(ctx); err != nil {
					m.noteCycle(err)
					if failover.TransportClass(err) {
						m.dropSource()
						establish()
					}
					continue
				}
				m.noteCycle(nil)
				continue
			}
			if m.getMode() == "watch" {
				// Watch mode: the tick is a liveness probe, not a walk.
				// A healthy watch already keeps the mirror converged; if
				// the source died without delivering a watch-lost event
				// (or the probe noticed before the event did), the dead
				// connection took the registration with it — count it as
				// a lost watch and re-establish.
				if m.probe(ctx) {
					m.noteCycle(nil)
				} else {
					m.dropSource()
					establish()
				}
				continue
			}
			err := m.cycle(ctx, false)
			m.noteCycle(err)
			if err != nil && failover.TransportClass(err) {
				m.dropSource()
				establish()
			}
		}
	}
}

// sleepCtx waits d or until ctx ends; reports whether the wait elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

func drainEvents(events chan event) {
	for {
		select {
		case <-events:
		default:
			return
		}
	}
}

// ensureSource returns the current source root, dialing if needed.
func (m *Mirror) ensureSource(ctx context.Context) (core.Context, error) {
	m.mu.Lock()
	src := m.src
	m.mu.Unlock()
	if src != nil {
		return src, nil
	}
	// srcBase is deliberately NOT refreshed here: it is fixed at New from
	// the URL (OpenURL returns the same path), and the fallback registry
	// reads it without a lock.
	src, _, err := core.OpenURL(ctx, m.cfg.SourceURL, m.env())
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.src = src
	m.mu.Unlock()
	return src, nil
}

func (m *Mirror) dropSource() {
	m.mu.Lock()
	src := m.src
	m.src = nil
	m.mu.Unlock()
	if src != nil {
		src.Close()
	}
}

// probe is watch mode's liveness check: one cheap source read. True
// means the source (and therefore the watch connection, which shares
// its wire) is answering.
func (m *Mirror) probe(ctx context.Context) bool {
	m.mu.Lock()
	src := m.src
	m.mu.Unlock()
	if src == nil {
		return false
	}
	pctx, cancel := context.WithTimeout(ctx, m.cfg.Interval)
	defer cancel()
	if cs, ok := src.(CursorSource); ok {
		if _, _, err := cs.SyncCursor(pctx, m.srcBase.String()); err == nil {
			return true
		} else {
			return !failover.TransportClass(err)
		}
	}
	_, err := src.Lookup(pctx, m.srcBase.String())
	return err == nil || !failover.TransportClass(err)
}

// cycle runs one delta-pull cycle: consult the source cursor, skip the
// walk when it is unchanged, resync otherwise. force walks regardless.
func (m *Mirror) cycle(ctx context.Context, force bool) error {
	src, err := m.ensureSource(ctx)
	if err != nil {
		return err
	}
	var cur string
	var curOK bool
	if cs, ok := src.(CursorSource); ok {
		cur, curOK, err = cs.SyncCursor(ctx, m.srcBase.String())
		if err != nil {
			return err
		}
	}
	m.mu.Lock()
	unchanged := curOK && cur != "" && cur == m.cursor && !m.lastSync.IsZero()
	m.mu.Unlock()
	if unchanged && !force {
		m.skipped.Add(1)
		m.mSkipped.Inc()
		return nil
	}
	// Read the cursor before the walk: changes landing mid-walk keep the
	// next cycle's cursor comparison unequal, so nothing is missed.
	if err := m.resync(ctx); err != nil {
		return err
	}
	if curOK {
		m.setCursor(cur)
	}
	return nil
}

func (m *Mirror) setCursor(cur string) {
	m.mu.Lock()
	changed := m.cursor != cur
	m.cursor = cur
	j := m.journal
	m.mu.Unlock()
	if changed && j != nil {
		j.cursor(cur)
	}
}

func (m *Mirror) setMode(mode string) {
	m.mu.Lock()
	m.mode = mode
	m.mu.Unlock()
}

func (m *Mirror) getMode() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mode
}

// noteCycle records a cycle outcome in counters, status and the lag
// gauge.
func (m *Mirror) noteCycle(err error) {
	m.cycles.Add(1)
	m.mCycles.Inc()
	m.mu.Lock()
	if err != nil {
		m.lastErr = err.Error()
	} else {
		m.lastErr = ""
		m.lastSync = time.Now()
	}
	last := m.lastSync
	m.mu.Unlock()
	if err != nil {
		m.mCycleErrs.Inc()
	}
	if !last.IsZero() {
		m.gLagMs.Set(time.Since(last).Milliseconds())
	}
}

// --- snapshot / diff / apply -------------------------------------------

// entry is one mirrored binding: a subcontext (IsCtx) or a leaf value.
type entry struct {
	isCtx bool
	obj   any
	fp    []byte // marshalled leaf value, for comparison
	attrs *core.Attributes
}

func (e *entry) equal(o *entry) bool {
	if e.isCtx != o.isCtx {
		return false
	}
	if !attrsOf(e).Equal(attrsOf(o)) {
		return false
	}
	return e.isCtx || string(e.fp) == string(o.fp)
}

func attrsOf(e *entry) *core.Attributes {
	if e.attrs == nil {
		return &core.Attributes{}
	}
	return e.attrs
}

// resync runs one full snapshot/diff/apply walk: deterministic
// convergence regardless of what events were lost. Unchanged entries
// are never rewritten, so a converged resync is write-free (this is
// what makes "no duplicated updates" testable: apply counters stand
// still across an idle resync).
func (m *Mirror) resync(ctx context.Context) error {
	m.resyncs.Add(1)
	m.mResyncs.Inc()
	src, err := m.ensureSource(ctx)
	if err != nil {
		return err
	}
	srcSnap, err := m.walk(ctx, src, m.srcBase)
	if err != nil {
		return fmt.Errorf("sync %s: source walk: %w", m.name, err)
	}
	dstSnap, err := m.walk(ctx, m.destRoot, m.destBase)
	if err != nil {
		return fmt.Errorf("sync %s: dest walk: %w", m.name, err)
	}

	// Deletions first, deepest first: entries gone from the source, and
	// entries whose kind flipped (their replacement lands in the upsert
	// pass below).
	var dels []string
	for p, de := range dstSnap {
		se, ok := srcSnap[p]
		if !ok || se.isCtx != de.isCtx {
			dels = append(dels, p)
		}
	}
	sort.Slice(dels, func(i, j int) bool { return depth(dels[i]) > depth(dels[j]) })
	for _, p := range dels {
		if err := m.deleteDest(ctx, p, dstSnap[p].isCtx); err != nil {
			return fmt.Errorf("sync %s: delete %q: %w", m.name, p, err)
		}
		delete(dstSnap, p)
	}

	// Upserts, shallowest first so parents exist before children.
	var ups []string
	for p, se := range srcSnap {
		if de, ok := dstSnap[p]; !ok || !se.equal(de) {
			ups = append(ups, p)
		}
	}
	sort.Slice(ups, func(i, j int) bool { return depth(ups[i]) < depth(ups[j]) })
	for _, p := range ups {
		if err := m.upsertDest(ctx, p, srcSnap[p], dstSnap[p]); err != nil {
			return fmt.Errorf("sync %s: apply %q: %w", m.name, p, err)
		}
	}
	return nil
}

func depth(p string) int {
	n, err := core.ParseName(p)
	if err != nil {
		return 0
	}
	return n.Size()
}

// walk snapshots the subtree under base in root as relative-path →
// entry. A child that turns out to be a federation boundary (listing it
// raises CannotProceedError) is captured as a context-Reference leaf,
// so the mirror preserves federation anchors instead of crossing them.
func (m *Mirror) walk(ctx context.Context, root core.Context, base core.Name) (map[string]*entry, error) {
	out := map[string]*entry{}
	dir, _ := root.(core.DirContext)
	var rec func(rel core.Name) error
	rec = func(rel core.Name) error {
		if err := core.CtxErr(ctx); err != nil {
			return err
		}
		full := base.Concat(rel)
		bindings, err := root.ListBindings(ctx, full.String())
		if err != nil {
			return err
		}
		for _, b := range bindings {
			childRel := rel.Append(b.Name)
			key := childRel.String()
			e := &entry{}
			if dir != nil {
				attrs, aerr := dir.GetAttributes(ctx, base.Concat(childRel).String())
				if aerr == nil {
					e.attrs = attrs
				} else if isTransportOrCtx(aerr) {
					return aerr
				}
			}
			if _, isCtx := b.Object.(core.Context); isCtx || b.Class == core.ContextReferenceClass {
				e.isCtx = true
				out[key] = e
				if err := rec(childRel); err != nil {
					var cpe *core.CannotProceedError
					if errors.As(err, &cpe) {
						// Federation boundary: mirror the anchor itself.
						if url, ok := cpe.Resolved.(string); ok {
							e.isCtx = false
							e.obj = core.NewContextReference(url)
							if fp, ferr := core.Marshal(e.obj); ferr == nil {
								e.fp = fp
							}
							continue
						}
						delete(out, key)
						continue
					}
					return err
				}
				continue
			}
			fp, ferr := core.Marshal(b.Object)
			if ferr != nil {
				// Unmarshallable value (unregistered type): skip rather
				// than wedge the whole mirror on one entry.
				delete(out, key)
				continue
			}
			e.obj, e.fp = b.Object, fp
			out[key] = e
		}
		return nil
	}
	if err := rec(core.Name{}); err != nil {
		var cpe *core.CannotProceedError
		if errors.As(err, &cpe) {
			return nil, fmt.Errorf("sync: source base is a federation boundary toward %v", cpe.Resolved)
		}
		return nil, err
	}
	return out, nil
}

// isTransportOrCtx reports errors that must abort a walk (as opposed to
// per-entry semantic errors like not-supported attributes).
func isTransportOrCtx(err error) bool {
	return failover.TransportClass(err) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// upsertDest writes one entry at the relative path p, given what the
// destination currently holds (existing may be nil).
func (m *Mirror) upsertDest(ctx context.Context, p string, e, existing *entry) error {
	rel, err := core.ParseName(p)
	if err != nil {
		return err
	}
	name := m.destBase.Concat(rel).String()
	switch {
	case e.isCtx && existing != nil && existing.isCtx:
		// Attribute drift on an existing context: replace wholesale.
		if err := m.reconcileAttrs(ctx, name, attrsOf(e), attrsOf(existing)); err != nil {
			return err
		}
	case e.isCtx:
		if existing != nil {
			if err := m.destDir.Unbind(ctx, name); err != nil && !errors.Is(err, core.ErrNotFound) {
				return err
			}
		}
		if _, err := m.destDir.CreateSubcontextAttrs(ctx, name, attrsOf(e)); err != nil && !errors.Is(err, core.ErrAlreadyBound) {
			return err
		}
	default:
		if existing != nil && existing.isCtx {
			if err := m.destDir.DestroySubcontext(ctx, name); err != nil && !errors.Is(err, core.ErrNotFound) {
				return err
			}
		}
		// RebindAttrs with non-nil attrs replaces both value and
		// attributes atomically — idempotent upsert.
		if err := m.destDir.RebindAttrs(ctx, name, e.obj, attrsOf(e)); err != nil {
			return err
		}
	}
	m.applied.Add(1)
	m.mApplied.Inc()
	m.clearTomb(p)
	return nil
}

// reconcileAttrs drives the destination context's attributes to want.
func (m *Mirror) reconcileAttrs(ctx context.Context, name string, want, have *core.Attributes) error {
	var mods []core.AttributeMod
	for _, a := range want.All() {
		mods = append(mods, core.AttributeMod{Op: core.ModReplace, Attr: a})
	}
	for _, id := range have.IDs() {
		if _, ok := want.Get(id); !ok {
			mods = append(mods, core.AttributeMod{Op: core.ModRemove, Attr: core.Attribute{ID: id}})
		}
	}
	if len(mods) == 0 {
		return nil
	}
	return m.destDir.ModifyAttributes(ctx, name, mods)
}

// deleteDest removes one entry and records its tombstone.
func (m *Mirror) deleteDest(ctx context.Context, p string, isCtx bool) error {
	rel, err := core.ParseName(p)
	if err != nil {
		return err
	}
	name := m.destBase.Concat(rel).String()
	if isCtx {
		err = m.destDir.DestroySubcontext(ctx, name)
	} else {
		err = m.destDir.Unbind(ctx, name)
	}
	if err != nil && !errors.Is(err, core.ErrNotFound) {
		return err
	}
	m.deleted.Add(1)
	m.mDeleted.Inc()
	m.setTomb(p)
	return nil
}

func (m *Mirror) setTomb(p string) {
	now := time.Now()
	m.mu.Lock()
	m.tombs[p] = now
	j := m.journal
	m.mu.Unlock()
	if j != nil {
		j.tomb(p, now)
	}
}

func (m *Mirror) clearTomb(p string) {
	m.mu.Lock()
	_, had := m.tombs[p]
	delete(m.tombs, p)
	j := m.journal
	m.mu.Unlock()
	if had && j != nil {
		j.untomb(p)
	}
}

// applyEvent reconciles one watched path by re-reading the source —
// the deterministic source-wins rule. The event's payload is
// deliberately ignored: events can arrive out of order relative to the
// snapshot walk (registration happens before the walk), and re-reading
// makes every interleaving converge on the source's current state.
// Renames arrive as two paths, so they fall back to a full resync.
func (m *Mirror) applyEvent(ctx context.Context, ev event) error {
	if ev.typ == core.EventObjectRenamed {
		return m.resync(ctx)
	}
	src, err := m.ensureSource(ctx)
	if err != nil {
		return err
	}
	rel, err := core.ParseName(ev.name)
	if err != nil || rel.IsEmpty() {
		return m.resync(ctx)
	}
	full := m.srcBase.Concat(rel)
	obj, err := src.Lookup(ctx, full.String())
	switch {
	case errors.Is(err, core.ErrNotFound):
		// Deleted at the source. The subtree under it (if it was a
		// context) produces its own removal events; a full resync
		// backstops any that were dropped.
		m.mu.Lock()
		dead := m.tombs[ev.name]
		m.mu.Unlock()
		if !dead.IsZero() {
			return nil // already dead; stale event
		}
		return m.deleteEventTarget(ctx, rel)
	case err != nil:
		var cpe *core.CannotProceedError
		if errors.As(err, &cpe) {
			if url, ok := cpe.Resolved.(string); ok && cpe.RemainingName.IsEmpty() {
				ref := core.NewContextReference(url)
				fp, _ := core.Marshal(ref)
				return m.upsertDest(ctx, ev.name, &entry{obj: ref, fp: fp}, nil)
			}
			return m.resync(ctx)
		}
		return err
	}
	e := &entry{}
	if _, isCtx := obj.(core.Context); isCtx {
		e.isCtx = true
	} else {
		fp, ferr := core.Marshal(obj)
		if ferr != nil {
			return nil // unmirrorable value; skip
		}
		e.obj, e.fp = obj, fp
	}
	if dir, ok := src.(core.DirContext); ok {
		if attrs, aerr := dir.GetAttributes(ctx, full.String()); aerr == nil {
			e.attrs = attrs
		} else if isTransportOrCtx(aerr) {
			return aerr
		}
	}
	existing, err := m.destEntry(ctx, rel)
	if err != nil {
		return err
	}
	if existing != nil && e.equal(existing) {
		return nil // converged already; duplicate delivery is a no-op
	}
	return m.upsertDest(ctx, ev.name, e, existing)
}

// deleteEventTarget removes rel from the destination, clearing any
// subtree under it (event-driven deletes can observe the parent's
// removal before every child event has been delivered).
func (m *Mirror) deleteEventTarget(ctx context.Context, rel core.Name) error {
	name := m.destBase.Concat(rel).String()
	obj, err := m.destRoot.Lookup(ctx, name)
	if errors.Is(err, core.ErrNotFound) {
		return nil
	}
	if err != nil {
		return err
	}
	if _, isCtx := obj.(core.Context); isCtx {
		if err := m.clearDestSubtree(ctx, rel); err != nil {
			return err
		}
		return m.deleteDest(ctx, rel.String(), true)
	}
	return m.deleteDest(ctx, rel.String(), false)
}

func (m *Mirror) clearDestSubtree(ctx context.Context, rel core.Name) error {
	name := m.destBase.Concat(rel).String()
	bindings, err := m.destRoot.ListBindings(ctx, name)
	if err != nil {
		return err
	}
	for _, b := range bindings {
		childRel := rel.Append(b.Name)
		if _, isCtx := b.Object.(core.Context); isCtx || b.Class == core.ContextReferenceClass {
			if err := m.clearDestSubtree(ctx, childRel); err != nil {
				return err
			}
			if err := m.deleteDest(ctx, childRel.String(), true); err != nil {
				return err
			}
		} else if err := m.deleteDest(ctx, childRel.String(), false); err != nil {
			return err
		}
	}
	return nil
}

// destEntry reads the destination's current entry at rel, nil if absent.
func (m *Mirror) destEntry(ctx context.Context, rel core.Name) (*entry, error) {
	name := m.destBase.Concat(rel).String()
	obj, err := m.destRoot.Lookup(ctx, name)
	if errors.Is(err, core.ErrNotFound) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	e := &entry{}
	if _, isCtx := obj.(core.Context); isCtx {
		e.isCtx = true
	} else {
		fp, ferr := core.Marshal(obj)
		if ferr != nil {
			return nil, nil
		}
		e.obj, e.fp = obj, fp
	}
	if attrs, aerr := m.destDir.GetAttributes(ctx, name); aerr == nil {
		e.attrs = attrs
	}
	return e, nil
}
