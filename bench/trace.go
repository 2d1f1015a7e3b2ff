package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gondi/internal/core"
	"gondi/internal/jgroups"
	"gondi/internal/wal"
)

// span is one timed interval of the traced run. Spans of one operation
// share the root's id as parent.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. The traced run has
// one client, so at most one chain of spans is open at a time: seam
// wrappers that cannot see the caller's ctx (wal.FS, jgroups.Transport)
// attribute their spans to the innermost open span, or to parent 0 when
// none is open (housekeeping, heartbeats).
type spanLog struct {
	epoch time.Time
	on    atomic.Bool // off during the untraced pass over the same world
	next  atomic.Uint64
	open  atomic.Uint64 // id of the innermost open span, 0 when none

	mu    sync.Mutex
	spans []span
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and makes it the innermost open one.
func (l *spanLog) begin() (id uint64, start time.Time) {
	id = l.next.Add(1)
	l.open.Store(id)
	return id, time.Now()
}

// end closes span id and makes parent the innermost open span again.
func (l *spanLog) end(id, parent uint64, name string, start time.Time) {
	end := time.Now()
	l.open.Store(parent)
	l.add(id, parent, name, start, end)
}

func (l *spanLog) add(id, parent uint64, name string, start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name,
		StartNs: start.Sub(l.epoch).Nanoseconds(), EndNs: end.Sub(l.epoch).Nanoseconds()})
	l.mu.Unlock()
}

// seam records a leaf span from a wrapper that has no ctx.
func (l *spanLog) seam(name string, start time.Time) {
	if l == nil || !l.on.Load() {
		return
	}
	l.add(l.next.Add(1), l.open.Load(), name, start, time.Now())
}

type spanKey struct{}

// traced wraps a target so every op is a root span whose id travels in
// ctx to the provider-boundary wrapper.
func (l *spanLog) traced(tgt target) target {
	return func(ctx context.Context, op *opSpec, alt bool) error {
		id, start := l.begin()
		err := tgt(context.WithValue(ctx, spanKey{}, id), op, alt)
		l.end(id, 0, rootSpan, start)
		return err
	}
}

const rootSpan = "initial-context"

func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes folds the log into mean self time per span name over the
// root operations: a span's self time is its duration minus the part its
// children cover. It also returns the mean root duration.
func (l *spanLog) selfTimes() (self map[string]float64, rootMean float64, roots int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	childSum := map[uint64]int64{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.EndNs - s.StartNs
		}
	}
	total := map[string]int64{}
	var rootTotal int64
	for _, s := range l.spans {
		d := s.EndNs - s.StartNs
		total[s.Name] += d - childSum[s.ID]
		if s.Name == rootSpan {
			roots++
			rootTotal += d
		}
	}
	self = map[string]float64{}
	if roots == 0 {
		return self, 0, 0
	}
	for name, ns := range total {
		self[name] = float64(ns) / float64(roots)
	}
	return self, float64(rootTotal) / float64(roots), roots
}

// spanMiddleware opens the provider-boundary child span: it wraps every
// context the resolution chain below it returns, so the child covers the
// provider (or cache + provider) call and the root's self time is core
// resolution plus the obs middleware.
type spanMiddleware struct{ log *spanLog }

var _ core.ChainedMiddleware = (*spanMiddleware)(nil)

func (m *spanMiddleware) WrapContext(c core.Context) core.Context { return m.wrap(c, "default") }

func (m *spanMiddleware) OpenURL(ctx context.Context, rawURL string, env map[string]any) (core.Context, core.Name, error) {
	return m.OpenURLNext(ctx, rawURL, env, core.OpenURL)
}

func (m *spanMiddleware) OpenURLNext(ctx context.Context, rawURL string, env map[string]any, next core.OpenURLFunc) (core.Context, core.Name, error) {
	c, rest, err := next(ctx, rawURL, env)
	if err != nil {
		return nil, rest, err
	}
	scheme, _, _ := strings.Cut(rawURL, ":")
	return m.wrap(c, scheme), rest, nil
}

func (m *spanMiddleware) Close() error { return nil }

// wrap times directory contexts (every provider the workloads use is
// one); anything else passes through untimed.
func (m *spanMiddleware) wrap(c core.Context, scheme string) core.Context {
	dc, ok := c.(core.DirContext)
	if !ok {
		return c
	}
	return &spanDirContext{DirContext: dc, log: m.log, name: "provider:" + scheme}
}

// spanDirContext times the operations the workloads issue; every other
// method passes through to the embedded context.
type spanDirContext struct {
	core.DirContext
	log  *spanLog
	name string
}

func (s *spanDirContext) span(ctx context.Context) func() {
	if !s.log.on.Load() {
		return func() {}
	}
	parent, _ := ctx.Value(spanKey{}).(uint64)
	id, start := s.log.begin()
	return func() { s.log.end(id, parent, s.name, start) }
}

func (s *spanDirContext) Lookup(ctx context.Context, name string) (any, error) {
	defer s.span(ctx)()
	return s.DirContext.Lookup(ctx, name)
}

func (s *spanDirContext) RebindAttrs(ctx context.Context, name string, obj any, attrs *core.Attributes) error {
	defer s.span(ctx)()
	return s.DirContext.RebindAttrs(ctx, name, obj, attrs)
}

func (s *spanDirContext) GetAttributes(ctx context.Context, name string, attrIDs ...string) (*core.Attributes, error) {
	defer s.span(ctx)()
	return s.DirContext.GetAttributes(ctx, name, attrIDs...)
}

// countingFS is the wal.FS seam: it counts what the WAL and snapshot
// writers push through the filesystem and, in the span pass, times it.
type countingFS struct {
	wal.FS
	spans  *spanLog
	bytes  atomic.Int64
	writes atomic.Int64
	syncs  atomic.Int64
	syncNs atomic.Int64
}

func (f *countingFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, fs: f}, nil
}

func (f *countingFS) CreateTemp(dir, pattern string) (wal.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, fs: f}, nil
}

type countingFile struct {
	wal.File
	fs *countingFS
}

func (f *countingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.bytes.Add(int64(n))
	f.fs.writes.Add(1)
	f.fs.spans.seam("wal.write", start)
	return n, err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.syncs.Add(1)
	f.fs.syncNs.Add(int64(time.Since(start)))
	f.fs.spans.seam("wal.sync", start)
	return err
}

// countingTransport is the jgroups.Transport seam: packets and payload
// bytes a node sends to its group.
type countingTransport struct {
	jgroups.Transport
	spans *spanLog
	msgs  atomic.Int64
	data  atomic.Int64 // packets that carry application payload
	bytes atomic.Int64
}

func (t *countingTransport) count(p *jgroups.Packet) {
	t.msgs.Add(1)
	if len(p.Payload) > 0 {
		t.data.Add(1)
		t.bytes.Add(int64(len(p.Payload)))
	}
}

func (t *countingTransport) Send(dest jgroups.Address, p *jgroups.Packet) error {
	start := time.Now()
	t.count(p)
	err := t.Transport.Send(dest, p)
	t.spans.seam("jgroups.send", start)
	return err
}

func (t *countingTransport) Broadcast(p *jgroups.Packet) error {
	start := time.Now()
	t.count(p)
	err := t.Transport.Broadcast(p)
	t.spans.seam("jgroups.broadcast", start)
	return err
}
