package jini

import (
	"fmt"
	"strings"
	"testing"
)

// A LookupCache holds events until its seed, then hands each on with the
// item it concerns: a removal carries the item as last seen, from the
// seed or from an earlier event, or nil for an item it never saw.
func TestLookupCache(t *testing.T) {
	var got []string
	c := NewLookupCache(func(ev ServiceEvent) {
		s := fmt.Sprintf("%d %s", ev.Transition, ev.ID)
		if ev.Item != nil {
			s += " item=" + string(ev.Item.ID)
		}
		got = append(got, s)
	})
	item := func(id ServiceID) *ServiceItem { return &ServiceItem{ID: id} }
	c.Event(ServiceEvent{Transition: TransitionNoMatchMatch, ID: "b", Item: item("b")})
	c.Event(ServiceEvent{Transition: TransitionMatchNoMatch, ID: "a"})
	if len(got) != 0 {
		t.Fatalf("events before the seed were passed on: %v", got)
	}
	c.Seed([]ServiceItem{*item("a"), *item("c")})
	c.Event(ServiceEvent{Transition: TransitionMatchNoMatch, ID: "b"})
	c.Event(ServiceEvent{Transition: TransitionMatchNoMatch, ID: "c"})
	c.Event(ServiceEvent{Transition: TransitionMatchNoMatch, ID: "c"})
	want := []string{
		"2 b item=b", // held, then passed on after the seed
		"1 a item=a", // named from the seed
		"1 b item=b", // named from its own match event
		"1 c item=c",
		"1 c", // already removed: nothing to name it by
	}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Fatalf("events = %q\nwant %q", got, want)
	}
}
