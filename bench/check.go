package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"gondi/internal/core"
	"gondi/internal/hdns"
)

// check is one correctness verdict of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

const divergenceSample = 1000

// replicaState is what the replica checks learned about a persistent
// group before it shut down.
type replicaState struct {
	version       uint64
	divergent     int     // sampled keys whose replicas disagree
	restoreNsPerR float64 // RestoreStore on a copy of the live WAL
}

// awaitConvergence waits until every replica reports the same version:
// a write is acked on its own node's delivery, so the other replica may
// still be applying the tail when the load stops.
func awaitConvergence(nodes []*hdns.Node) (uint64, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		v := nodes[0].Store().Version()
		same := true
		for _, n := range nodes[1:] {
			if n.Store().Version() != v {
				same = false
			}
		}
		if same {
			return v, nil
		}
		if time.Now().After(deadline) {
			return v, fmt.Errorf("replicas did not converge: versions %d vs %d", v, nodes[1].Store().Version())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// divergentKeys compares a seeded sample of keys across the replicas and
// against the two values the workload writes.
func divergentKeys(nodes []*hdns.Node, ops []opSpec, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	bad := 0
	for s := 0; s < divergenceSample; s++ {
		i := rng.Intn(len(ops))
		name := []string{keyName(i)}
		ref := nodes[0].Store().Lookup(name)
		obj, err := core.Unmarshal(ref.Obj)
		if str, ok := obj.(string); err != nil || !ok || (str != ops[i].want && str != ops[i].alt) {
			bad++
			continue
		}
		for _, n := range nodes[1:] {
			v := n.Store().Lookup(name)
			if !bytes.Equal(v.Obj, ref.Obj) || !reflect.DeepEqual(v.Attrs, ref.Attrs) {
				bad++
				break
			}
		}
	}
	return bad
}

func copyTree(dst, src string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(to)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// checkReplicas runs the replica checks of a persistent group while it is
// still up: convergence, sampled content, and a restore of a copy of
// node 1's live snapshot + WAL (the node keeps its own files for the
// clean close that follows).
func (w *world) checkReplicas(seed int64) (replicaState, []check) {
	var st replicaState
	var out []check
	v, err := awaitConvergence(w.nodes)
	st.version = v
	out = append(out, check{"replica_versions_equal", err == nil, fmt.Sprintf("version %d on %d replicas (err: %v)", v, len(w.nodes), err)})

	st.divergent = divergentKeys(w.nodes, w.groups[0].ops, seed)
	out = append(out, check{"replica_content_equal", st.divergent == 0,
		fmt.Sprintf("%d of %d sampled keys divergent", st.divergent, divergenceSample)})

	if len(w.dirs) == 0 {
		return st, out
	}
	if err := w.nodes[0].SyncDurable(); err != nil {
		out = append(out, check{"wal_sync", false, err.Error()})
		return st, out
	}
	cp := filepath.Join(w.tmp, "restore-copy")
	if err := copyTree(cp, filepath.Dir(w.dirs[0].snapshot)); err != nil {
		out = append(out, check{"restore_live_wal", false, err.Error()})
		return st, out
	}
	start := time.Now()
	store, replayed, err := hdns.RestoreStore(filepath.Join(cp, filepath.Base(w.dirs[0].snapshot)), filepath.Join(cp, filepath.Base(w.dirs[0].wal)))
	took := time.Since(start)
	ok := err == nil && store.Version() == v
	detail := fmt.Sprintf("err: %v", err)
	if err == nil {
		detail = fmt.Sprintf("snapshot + %d WAL records -> version %d (want %d) in %v", replayed, store.Version(), v, took.Round(time.Millisecond))
		if replayed > 0 {
			st.restoreNsPerR = float64(took.Nanoseconds()) / float64(replayed)
		}
	}
	out = append(out, check{"restore_live_wal", ok, detail})
	return st, out
}

// checkRestoreAfterClose verifies that every node's own snapshot + WAL,
// after its clean close, reproduces the converged version.
func (w *world) checkRestoreAfterClose(version uint64) []check {
	var out []check
	for i, d := range w.dirs {
		store, replayed, err := hdns.RestoreStore(d.snapshot, d.wal)
		ok := err == nil && store.Version() == version
		detail := fmt.Sprintf("err: %v", err)
		if err == nil {
			detail = fmt.Sprintf("node %d: snapshot + %d WAL records -> version %d (want %d)", i+1, replayed, store.Version(), version)
		}
		out = append(out, check{fmt.Sprintf("restore_after_close_node%d", i+1), ok, detail})
	}
	return out
}

// checkWrites reads every write-only name back through the federated API:
// it must hold one of the two values the workload rebinds.
func (w *world) checkWrites(ctx context.Context) []check {
	var out []check
	for _, g := range w.groups {
		if g.ops[0].kind != opRebind || w.name == wlHDNSWrite {
			continue
		}
		bad := 0
		var firstErr error
		for i := range g.ops {
			obj, err := w.ic.Lookup(ctx, g.ops[i].url)
			if s, ok := obj.(string); err != nil || !ok || (s != g.ops[i].want && s != g.ops[i].alt) {
				bad++
				if firstErr == nil {
					firstErr = err
				}
			}
		}
		out = append(out, check{"readback_" + g.label, bad == 0,
			fmt.Sprintf("%d of %d written names wrong (first err: %v)", bad, len(g.ops), firstErr)})
	}
	return out
}
