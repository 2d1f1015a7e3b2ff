package gondi

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gondi/internal/core"
	"gondi/internal/provider/hdnssp"
	"gondi/internal/provider/jinisp"
	"gondi/internal/provider/memsp"
)

// TestProviderEventRule pins the one event rule on the three providers
// with events. Each holds the contexts p, p/a and p/z, watches p/a/x
// (object scope), p/a (one level) and p/a (subtree), and runs one
// change script:
//
//	bind + unbind p/z/out   (outside every watch)
//	bind p/a/x
//	rename p/a/x -> p/a/y   (in scope at both ends)
//	rename p/a/y -> p/z/y   (out of scope)
//	bind p/z/q
//	rename p/z/q -> p/a/q   (into scope)
//
// A rename with both names in scope is one event; leaving the scope is
// the old name's removal, entering it the new name's addition. Names are
// relative to the watch target. jinisp renames by bind + unbind, so it
// reports the new name's addition and then the old name's removal.
func TestProviderEventRule(t *testing.T) {
	ctx := context.Background()
	w := buildWorld(t)
	env := func() map[string]any { return map[string]any{core.EnvPoolID: t.Name()} }
	native := map[core.SearchScope]string{
		core.ScopeObject:   `added ""; removed ""`,
		core.ScopeOneLevel: `added "x"; renamed "x" -> "y"; removed "y"; added "q"`,
		core.ScopeSubtree:  `added "x"; renamed "x" -> "y"; removed "y"; added "q"`,
	}
	bindUnbind := map[core.SearchScope]string{
		core.ScopeObject:   `added ""; removed ""`,
		core.ScopeOneLevel: `added "x"; added "y"; removed "x"; removed "y"; added "q"`,
		core.ScopeSubtree:  `added "x"; added "y"; removed "x"; removed "y"; added "q"`,
	}
	for _, p := range []struct {
		name string
		open func() (core.Context, error)
		want map[core.SearchScope]string
	}{
		{name: "memsp", want: native, open: func() (core.Context, error) {
			return memsp.NewContext(memsp.NewTree(), nil, ""), nil
		}},
		{name: "hdnssp", want: native, open: func() (core.Context, error) {
			return hdnssp.Open(ctx, w.nodes[0].Addr(), env())
		}},
		{name: "jinisp", want: bindUnbind, open: func() (core.Context, error) {
			return jinisp.Open(ctx, w.lus.Addr(), env())
		}},
	} {
		t.Run(p.name, func(t *testing.T) {
			c, err := p.open()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			for _, sub := range []string{"p", "p/a", "p/z"} {
				if _, err := c.CreateSubcontext(ctx, sub); err != nil {
					t.Fatal(err)
				}
			}
			ec := c.(core.EventContext)
			watches := []struct {
				target string
				scope  core.SearchScope
				label  string
			}{
				{"p/a/x", core.ScopeObject, "object"},
				{"p/a", core.ScopeOneLevel, "onelevel"},
				{"p/a", core.ScopeSubtree, "subtree"},
			}
			logs := make([]*eventLog, len(watches))
			for i, wt := range watches {
				logs[i] = &eventLog{}
				cancel, err := ec.Watch(ctx, wt.target, wt.scope, logs[i].record)
				if err != nil {
					t.Fatalf("watch %s: %v", wt.label, err)
				}
				t.Cleanup(cancel)
			}
			// A last bind seen by a whole-namespace watch on the same
			// connection marks the end: every earlier event has been
			// delivered by then.
			end := &eventLog{}
			cancel, err := ec.Watch(ctx, "", core.ScopeSubtree, end.record)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cancel)

			for _, step := range []func() error{
				func() error { return c.Bind(ctx, "p/z/out", 1) },
				func() error { return c.Unbind(ctx, "p/z/out") },
				func() error { return c.Bind(ctx, "p/a/x", 2) },
				func() error { return c.Rename(ctx, "p/a/x", "p/a/y") },
				func() error { return c.Rename(ctx, "p/a/y", "p/z/y") },
				func() error { return c.Bind(ctx, "p/z/q", 3) },
				func() error { return c.Rename(ctx, "p/z/q", "p/a/q") },
				func() error { return c.Bind(ctx, "end", 4) },
			} {
				if err := step(); err != nil {
					t.Fatal(err)
				}
			}
			deadline := time.Now().Add(5 * time.Second)
			for !strings.HasSuffix(end.String(), `added "end"`) {
				if time.Now().After(deadline) {
					t.Fatalf("the end marker never arrived; whole-namespace watch saw: %s", end)
				}
				time.Sleep(10 * time.Millisecond)
			}
			for i, wt := range watches {
				t.Run(wt.label, func(t *testing.T) {
					if got, want := logs[i].String(), p.want[wt.scope]; got != want {
						t.Errorf("%s watch on %s saw\n\t%s\nwant\n\t%s", wt.label, wt.target, got, want)
					}
				})
			}
		})
	}
}

// eventLog records a watch's events as one line, `renamed "old" -> "new"`
// for a rename and `<type> "name"` for the rest.
type eventLog struct {
	mu  sync.Mutex
	got []string
}

func (l *eventLog) record(e core.NamingEvent) {
	s := fmt.Sprintf("%s %q", e.Type, e.Name)
	if e.Type == core.EventObjectRenamed {
		s = fmt.Sprintf("%s %q -> %q", e.Type, e.OldName, e.Name)
	}
	l.mu.Lock()
	l.got = append(l.got, s)
	l.mu.Unlock()
}

func (l *eventLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.got, "; ")
}
