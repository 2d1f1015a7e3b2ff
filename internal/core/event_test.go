package core

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestEventFor(t *testing.T) {
	n := MustParseName
	for _, c := range []struct {
		target, name, old string
		scope             SearchScope
		typ               EventType
		want              string // "" when the watch sees nothing
	}{
		{target: "a", scope: ScopeSubtree, typ: EventObjectAdded, name: "a/x/y", want: `added "x/y" ""`},
		{target: "a", scope: ScopeSubtree, typ: EventObjectAdded, name: "a", want: `added "" ""`},
		{target: "a", scope: ScopeSubtree, typ: EventObjectRemoved, name: "z/out"},
		{target: "a", scope: ScopeSubtree, typ: EventObjectRemoved, name: "ab"},
		{target: "a", scope: ScopeOneLevel, typ: EventObjectChanged, name: "a/x", want: `changed "x" ""`},
		{target: "a", scope: ScopeOneLevel, typ: EventObjectChanged, name: "a/x/y"},
		{target: "a", scope: ScopeOneLevel, typ: EventObjectChanged, name: "a"},
		{target: "a/x", scope: ScopeObject, typ: EventObjectChanged, name: "a/x", want: `changed "" ""`},
		{target: "a/x", scope: ScopeObject, typ: EventObjectChanged, name: "a/y"},
		{target: "", scope: ScopeSubtree, typ: EventObjectAdded, name: "b", want: `added "b" ""`},
		// A rename is one event inside the watch, the removal of the old
		// name leaving it and the addition of the new one entering it.
		{target: "a", scope: ScopeSubtree, typ: EventObjectRenamed, old: "a/x", name: "a/y", want: `renamed "y" "x"`},
		{target: "a", scope: ScopeSubtree, typ: EventObjectRenamed, old: "a/y", name: "z/y", want: `removed "y" ""`},
		{target: "a", scope: ScopeSubtree, typ: EventObjectRenamed, old: "z/q", name: "a/q", want: `added "q" ""`},
		{target: "a", scope: ScopeSubtree, typ: EventObjectRenamed, old: "z/q", name: "z/r"},
		{target: "a/x", scope: ScopeObject, typ: EventObjectRenamed, old: "a/x", name: "a/y", want: `removed "" ""`},
		{target: "a", scope: ScopeOneLevel, typ: EventObjectRenamed, old: "a/x", name: "a/d/x", want: `removed "x" ""`},
	} {
		ev, ok := EventFor(n(c.target), c.scope, c.typ, n(c.name), n(c.old), "new", "old")
		got := ""
		if ok {
			got = fmt.Sprintf("%s %q %q", ev.Type, ev.Name, ev.OldName)
		}
		if got != c.want {
			t.Errorf("watch on %q (scope %d), %s %q <- %q: got %s, want %s", c.target, c.scope, c.typ, c.name, c.old, got, c.want)
		}
		if ok && (ev.Type == EventObjectRemoved) != (ev.NewValue == nil) {
			t.Errorf("%s: NewValue %v, OldValue %v", got, ev.NewValue, ev.OldValue)
		}
	}
}

func TestWatchLoss(t *testing.T) {
	t.Run("done closing loses the watch once", func(t *testing.T) {
		done, unregistered := make(chan struct{}), make(chan struct{}, 2)
		var lost, events atomic.Int32
		var got NamingEvent
		cancel, lose := WatchLoss(done, func(e NamingEvent) { events.Add(1); got = e },
			func() { lost.Add(1) }, func() { unregistered <- struct{}{} })
		close(done)
		<-unregistered
		lose()
		cancel()
		if got.Type != EventWatchLost || got.Name != "" || events.Load() != 1 || lost.Load() != 1 || len(unregistered) != 0 {
			t.Fatalf("event %+v; events %d, lost %d, unregistered again %d; want one EventWatchLost, one loss, one unregister",
				got, events.Load(), lost.Load(), len(unregistered))
		}
	})
	t.Run("cancel ends the watch quietly", func(t *testing.T) {
		var lost, unregistered, events atomic.Int32
		cancel, lose := WatchLoss(nil, func(NamingEvent) { events.Add(1) },
			func() { lost.Add(1) }, func() { unregistered.Add(1) })
		cancel()
		cancel()
		lose()
		if events.Load() != 0 || lost.Load() != 0 || unregistered.Load() != 1 {
			t.Fatalf("events %d, lost %d, unregistered %d; want 0, 0, 1", events.Load(), lost.Load(), unregistered.Load())
		}
	})
}
