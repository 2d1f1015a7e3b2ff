package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"gondi/internal/admission"
	"gondi/internal/cache"
	"gondi/internal/core"
	"gondi/internal/dnssrv"
	"gondi/internal/hdns"
	"gondi/internal/jgroups"
	"gondi/internal/jini"
	"gondi/internal/ldapsrv"
	"gondi/internal/obs"
	"gondi/internal/provider/dnssp"
	"gondi/internal/provider/hdnssp"
	"gondi/internal/provider/jinisp"
	"gondi/internal/provider/ldapsp"
	"gondi/internal/wal"
)

// Workload names are the contract later issues cite.
const (
	wlHDNSRead     = "hdns_read"
	wlHDNSWrite    = "hdns_write"
	wlCacheHit     = "cache_hit"
	wlFederatedMix = "federated_mix"
)

var workloadNames = []string{wlHDNSRead, wlHDNSWrite, wlCacheHit, wlFederatedMix}

// Name counts of the worlds. They are variables only so the hygiene tests
// can build small worlds; nothing else assigns them.
var (
	hdnsKeys     = 10000 // keys seeded in every HDNS group
	mixKeys      = 1000  // read names per service in federated_mix
	mixWriteKeys = 100   // write-only names per writable service
)

const (
	cacheKeys  = 512 // zipf working set of cache_hit
	payloadLen = 220
	ldapBaseDN = "dc=bench,dc=gondi"
	// jiniLeaseMs is Jini's maximum lease: the provider renews at half
	// life, so no renewal traffic falls inside a run.
	jiniLeaseMs = int(jini.MaxLease / time.Millisecond)
)

func registerProviders() {
	jinisp.Register()
	hdnssp.Register()
	dnssp.Register()
	ldapsp.Register()
	cache.Register()
}

// payload is the 220-byte string object bound under key i of service svc.
// variant 1 is the alternate value rebinds flip to.
func payload(seed int64, svc string, i, variant int) string {
	b := make([]byte, 0, payloadLen)
	b = append(b, fmt.Sprintf("%s/k%05d/v%d/", svc, i, variant)...)
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)<<8 + uint64(variant)
	for len(b) < payloadLen {
		// splitmix64: deterministic filler that does not compress to
		// one repeated byte.
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		for s := 0; s < 64 && len(b) < payloadLen; s += 4 {
			b = append(b, "0123456789abcdef"[(z>>uint(s))&15])
		}
	}
	return string(b)
}

func keyName(i int) string { return fmt.Sprintf("k%05d", i) }

var benchAttrs = core.NewAttributes("kind", "bench")

type opKind uint8

const (
	opLookup opKind = iota
	opGetAttrs
	opRebind
)

// opSpec is one pre-generated operation: the loop only indexes into a
// table of these, so the generator allocates nothing per op.
type opSpec struct {
	kind opKind
	url  string
	// want is the value a read must return; for a rebind, want and alt are
	// the two values the loop alternates between.
	want, alt string
}

// opGroup is one weighted class of operations in a workload's mix.
type opGroup struct {
	label  string
	weight int // percent; weights of a workload sum to 100
	zipf   bool
	// ownNames gives every client its own slice of the names: rebind in
	// the Jini (relaxed) and LDAP providers is check-then-set, so two
	// clients rebinding one name at once can fail with "already bound".
	ownNames bool
	ops      []opSpec
}

// world is one started system under test: servers, the shared client
// context and the operation table.
type world struct {
	name   string
	ic     *core.InitialContext
	groups []opGroup
	nodes  []*hdns.Node
	dirs   []nodeDirs // per node; empty when the group is not persistent
	tmp    string     // removed on close
	// counters interposed on public seams (nil when the seam is unused)
	fs *countingFS
	tr []*countingTransport

	closers []func() error
}

type nodeDirs struct{ snapshot, wal string }

func (w *world) onClose(f func() error) { w.closers = append(w.closers, f) }

// shutdown stops the client context and the servers in reverse start
// order, leaving the world's files in place.
func (w *world) shutdown() error {
	var first error
	for i := len(w.closers) - 1; i >= 0; i-- {
		if err := w.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	w.closers = nil
	return first
}

// close shuts the world down and removes its files.
func (w *world) close() error {
	err := w.shutdown()
	if w.tmp != "" {
		if rerr := os.RemoveAll(w.tmp); rerr != nil && err == nil {
			err = rerr
		}
	}
	return err
}

// worldOptions are the interposers the traced run slides into the public
// seams; the timed runs leave them zero.
type worldOptions struct {
	middleware core.Middleware // stacked outermost on the client context
	// spans, when set, wraps wal.FS and jgroups.Transport with wrappers
	// that count what passes and record it as spans.
	spans *spanLog
}

func controller(server string) *admission.Controller {
	// Daemon default: admission on at admission.DefaultQueueBound.
	return admission.NewController(admission.NewOptions(admission.WithServer(server)))
}

// startHDNSGroup starts an n-node replicated group. Clients reach the
// nodes over loopback TCP; the nodes replicate over the in-process
// jgroups.Fabric, because the UDP transport's gossip repair bundles can
// outgrow one datagram and wedge the send window after a single lost
// packet (see README, "Found while building"). With persist, each node
// gets its own WAL directory and snapshot file and fsyncs on a 1 s
// housekeeping tick.
func (w *world) startHDNSGroup(n int, persist bool, opt worldOptions) error {
	fabric := jgroups.NewFabric()
	for i := 0; i < n; i++ {
		tr := fabric.Endpoint(jgroups.Address(fmt.Sprintf("node%d", i+1)))
		if opt.spans != nil {
			ct := &countingTransport{Transport: tr, spans: opt.spans}
			w.tr = append(w.tr, ct)
			tr = ct
		}
		cfg := hdns.NodeConfig{
			Group:      "bench-" + w.name,
			Transport:  tr,
			ListenAddr: "127.0.0.1:0",
			Admission:  controller("hdns"),
		}
		if persist {
			dir := filepath.Join(w.tmp, fmt.Sprintf("node%d", i+1))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			d := nodeDirs{snapshot: filepath.Join(dir, "replica.snap"), wal: filepath.Join(dir, "wal")}
			w.dirs = append(w.dirs, d)
			cfg.SnapshotPath, cfg.WALDir = d.snapshot, d.wal
			cfg.SnapshotInterval = time.Second
			if opt.spans != nil && i == 0 {
				w.fs = &countingFS{FS: wal.OS, spans: opt.spans}
				cfg.FS = w.fs
			}
		}
		node, err := hdns.NewNode(cfg)
		if err != nil {
			tr.Close()
			return fmt.Errorf("hdns node %d: %w", i+1, err)
		}
		w.nodes = append(w.nodes, node)
		w.onClose(node.Close)
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, node := range w.nodes {
		for len(node.Channel().View().Members) != n {
			if time.Now().After(deadline) {
				return fmt.Errorf("hdns group did not reach %d members", n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// seed binds names[i] -> values[i] (with the bench attribute) under the
// provider root at rootURL, batched where the provider batches. Chunks go
// out concurrently over the one pooled connection so the servers can
// coalesce them (HDNS replicates up to 64 queued writes per group frame).
func seed(ctx context.Context, rootURL string, env map[string]any, names, values []string) error {
	c, _, err := core.OpenURL(ctx, rootURL, env)
	if err != nil {
		return fmt.Errorf("seed %s: %w", rootURL, err)
	}
	defer c.Close()
	const chunk, inFlight = 100, 8
	sem := make(chan struct{}, inFlight) // bounds concurrent chunks
	chunks := (len(names) + chunk - 1) / chunk
	errs := make(chan error, chunks)
	for at := 0; at < len(names); at += chunk {
		end := min(at+chunk, len(names))
		reqs := make([]core.BindRequest, 0, end-at)
		for i := at; i < end; i++ {
			reqs = append(reqs, core.BindRequest{Name: names[i], Obj: values[i], Attrs: benchAttrs})
		}
		sem <- struct{}{}
		go func() {
			defer func() { <-sem }()
			res, err := core.BindMany(ctx, c, reqs)
			for i := 0; err == nil && i < len(res); i++ {
				if res[i].Err != nil {
					err = fmt.Errorf("%s: %w", reqs[i].Name, res[i].Err)
				}
			}
			errs <- err
		}()
	}
	var first error
	for i := 0; i < chunks; i++ { // every chunk reports before c closes
		if err := <-errs; err != nil && first == nil {
			first = fmt.Errorf("seed %s: %w", rootURL, err)
		}
	}
	return first
}

// makeOps builds the op table for keys [from, from+n) of service svc under
// prefix ("scheme://authority/"), with the names and seeded values to bind.
// A rebind op also carries the alternate value the loop flips to.
func makeOps(kind opKind, seed int64, svc, prefix string, from, n int) (ops []opSpec, names, values []string) {
	ops = make([]opSpec, n)
	names = make([]string, n)
	values = make([]string, n)
	for i := range ops {
		names[i] = keyName(from + i)
		values[i] = payload(seed, svc, from+i, 0)
		ops[i] = opSpec{kind: kind, url: prefix + names[i], want: values[i]}
		if kind == opRebind {
			ops[i].alt = payload(seed, svc, from+i, 1)
		}
	}
	return ops, names, values
}

// benchEnv is the client environment of every world: relaxed Jini binds
// under the maximum lease.
func benchEnv() map[string]any {
	return map[string]any{jinisp.EnvBind: "relaxed", jinisp.EnvLeaseMs: jiniLeaseMs}
}

// clientOptions composes the client context: obs enabled, as in fedctl
// (metrics and federation tracing wrap every operation), outer stacked
// outside it when set, the read-through cache innermost when cached.
func clientOptions(env map[string]any, outer core.Middleware, cached bool) []core.Option {
	var opts []core.Option
	if outer != nil {
		opts = append(opts, core.WithMiddleware(outer))
	}
	opts = append(opts, core.WithMiddleware(obs.NewMiddleware()))
	for k, v := range env {
		opts = append(opts, core.WithEnv(k, v))
	}
	if cached {
		opts = append(opts, core.WithCache(cache.Config{}))
	}
	return opts
}

// startDNS starts a DNS server on a free loopback port. dnssrv.NewServer
// takes the port TCP hands out and binds UDP to the same number, which a
// UDP socket (a resolver's) may already hold: try another port then.
func startDNS() (*dnssrv.Server, error) {
	for attempt := 1; ; attempt++ {
		srv, err := dnssrv.NewServer("127.0.0.1:0", nil, dnssrv.WithAdmission(controller("dns")))
		if err == nil || attempt == 10 || !errors.Is(err, syscall.EADDRINUSE) {
			return srv, err
		}
	}
}

// benchZone is the DNS side of the federation: a TXT record per name under
// svc.global, and mathcs.global delegating to the HDNS node at hdnsAddr.
func benchZone(hdnsAddr string, names, values []string) *dnssrv.Zone {
	zone := dnssrv.NewZone("global")
	zone.Add(dnssrv.RR{Name: "mathcs.global", Type: dnssrv.TypeTXT, Txt: []string{"hdns://" + hdnsAddr}})
	for i := range names {
		zone.Add(dnssrv.RR{Name: names[i] + ".svc.global", Type: dnssrv.TypeTXT, Txt: []string{values[i]}})
	}
	return zone
}

// buildWorld starts, seeds and dials the named workload's system. It is
// what setup_s times.
func buildWorld(ctx context.Context, name string, seedN int64, opt worldOptions) (_ *world, err error) {
	w := &world{name: name}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	if err := os.MkdirAll("out", 0o755); err != nil {
		return nil, err
	}
	if w.tmp, err = os.MkdirTemp("out", "world-"); err != nil {
		return nil, err
	}

	env := benchEnv()
	switch name {
	case wlHDNSRead, wlCacheHit, wlHDNSWrite:
		if err := w.startHDNSGroup(2, name == wlHDNSWrite, opt); err != nil {
			return nil, err
		}
		prefix := "hdns://" + w.nodes[0].Addr() + "/"
		g := opGroup{label: "hdns.lookup", weight: 100}
		kind := opLookup
		if name == wlHDNSWrite {
			g.label, kind = "hdns.rebind", opRebind
		}
		ops, names, values := makeOps(kind, seedN, "hdns", prefix, 0, hdnsKeys)
		if err := seed(ctx, prefix, env, names, values); err != nil {
			return nil, err
		}
		g.ops = ops
		if name == wlCacheHit {
			g.ops, g.zipf = ops[:cacheKeys], true
		}
		w.groups = []opGroup{g}

	case wlFederatedMix:
		if err := w.startFederation(ctx, seedN, env, opt); err != nil {
			return nil, err
		}

	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}

	if w.ic, err = core.Open(ctx, clientOptions(env, opt.middleware, name == wlCacheHit)...); err != nil {
		return nil, err
	}
	w.onClose(w.ic.Close)
	// Dial: one operation of every kind opens the pooled connection per
	// authority, so no timed op pays a dial.
	for gi := range w.groups {
		if err := w.do(ctx, &w.groups[gi].ops[0], false); err != nil {
			return nil, fmt.Errorf("dial %s: %w", w.groups[gi].label, err)
		}
	}
	return w, nil
}

// startFederation starts the four wire stacks of federated_mix and seeds
// 1 000 read names (and 100 write-only names where writable) in each.
func (w *world) startFederation(ctx context.Context, seedN int64, env map[string]any, opt worldOptions) error {
	lus, err := jini.NewLUS(jini.LUSConfig{ListenAddr: "127.0.0.1:0", Admission: controller("jini")})
	if err != nil {
		return fmt.Errorf("jini lus: %w", err)
	}
	w.onClose(lus.Close)
	ldapSrv, err := ldapsrv.NewServer("127.0.0.1:0", ldapsrv.ServerConfig{BaseDN: ldapBaseDN, Admission: controller("ldap")})
	if err != nil {
		return fmt.Errorf("ldap server: %w", err)
	}
	w.onClose(ldapSrv.Close)
	dnsSrv, err := startDNS()
	if err != nil {
		return fmt.Errorf("dns server: %w", err)
	}
	w.onClose(dnsSrv.Close)
	if err := w.startHDNSGroup(2, false, opt); err != nil {
		return err
	}

	jiniPrefix := "jini://" + lus.Addr() + "/"
	ldapPrefix := "ldap://" + ldapSrv.Addr() + "/" + ldapBaseDN + "/"
	hdnsPrefix := "hdns://" + w.nodes[0].Addr() + "/"
	dnsPrefix := "dns://" + dnsSrv.Addr() + "/global/svc/"
	hopPrefix := "dns://" + dnsSrv.Addr() + "/global/mathcs/"

	jiniR, jn, jv := makeOps(opLookup, seedN, "jini", jiniPrefix, 0, mixKeys)
	jiniW, jwn, jwv := makeOps(opRebind, seedN, "jini", jiniPrefix, mixKeys, mixWriteKeys)
	if err := seed(ctx, jiniPrefix, env, append(jn, jwn...), append(jv, jwv...)); err != nil {
		return err
	}
	ldapR, ln, lv := makeOps(opLookup, seedN, "ldap", ldapPrefix, 0, mixKeys)
	ldapW, lwn, lwv := makeOps(opRebind, seedN, "ldap", ldapPrefix, mixKeys, mixWriteKeys)
	if err := seed(ctx, ldapPrefix, env, append(ln, lwn...), append(lv, lwv...)); err != nil {
		return err
	}
	hdnsR, hn, hv := makeOps(opLookup, seedN, "hdns", hdnsPrefix, 0, mixKeys)
	if err := seed(ctx, hdnsPrefix, env, hn, hv); err != nil {
		return err
	}
	// The 2-hop names resolve dns:// -> hdns:// to the same HDNS keys.
	hopR := make([]opSpec, mixKeys)
	for i := range hopR {
		hopR[i] = opSpec{kind: opLookup, url: hopPrefix + keyName(i), want: hv[i]}
	}
	// DNS is read-only through the provider: its records are zone data.
	dnsR, dn, dv := makeOps(opGetAttrs, seedN, "dns", dnsPrefix, 0, mixKeys)
	dnsSrv.AddZone(benchZone(w.nodes[0].Addr(), dn, dv))

	w.groups = []opGroup{
		{label: "jini.lookup", weight: 18, ops: jiniR},
		{label: "ldap.lookup", weight: 18, ops: ldapR},
		{label: "dns.getattrs", weight: 18, ops: dnsR},
		{label: "hdns.lookup", weight: 18, ops: hdnsR},
		{label: "dns-hdns.lookup", weight: 18, ops: hopR},
		{label: "ldap.rebind", weight: 5, ownNames: true, ops: ldapW},
		{label: "jini.rebind", weight: 5, ownNames: true, ops: jiniW},
	}
	return nil
}

type wrongPayloadError struct{ url string }

func (e *wrongPayloadError) Error() string { return "wrong payload for " + e.url }

// do runs one operation through the federated API and verifies its
// result against the seeded value.
func (w *world) do(ctx context.Context, op *opSpec, alt bool) error {
	switch op.kind {
	case opLookup:
		obj, err := w.ic.Lookup(ctx, op.url)
		if err != nil {
			return err
		}
		if s, ok := obj.(string); !ok || s != op.want {
			return &wrongPayloadError{op.url}
		}
	case opGetAttrs:
		attrs, err := w.ic.GetAttributes(ctx, op.url)
		if err != nil {
			return err
		}
		if attrs.GetFirst("TXT") != op.want {
			return &wrongPayloadError{op.url}
		}
	case opRebind:
		v := op.want
		if alt {
			v = op.alt
		}
		return w.ic.RebindAttrs(ctx, op.url, v, benchAttrs)
	}
	return nil
}
