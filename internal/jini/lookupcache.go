package jini

import "sync"

// LookupCache keeps the items one notify registration matches, as Jini's
// net.jini.lookup.LookupCache does for its listeners, so that every
// event can carry the item it concerns: a MatchNoMatch remote event
// names only the ServiceID. The registration comes first, with Event as
// its handler; then one Lookup of the same template seeds the cache
// (Seed), and every event updates it. fn gets each event with its item —
// for a MatchNoMatch the item as last seen, or nil when the cache never
// saw it. Events that arrive before the seed reach fn after it, in order.
// fn runs under the cache's lock, one event at a time.
type LookupCache struct {
	fn     func(ServiceEvent)
	mu     sync.Mutex
	items  map[ServiceID]*ServiceItem
	held   []ServiceEvent
	seeded bool
}

// NewLookupCache returns an empty cache that passes events on to fn.
func NewLookupCache(fn func(ServiceEvent)) *LookupCache {
	return &LookupCache{fn: fn, items: map[ServiceID]*ServiceItem{}}
}

// Event is the registration's handler.
func (c *LookupCache) Event(ev ServiceEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.seeded {
		c.held = append(c.held, ev)
		return
	}
	c.eventLocked(ev)
}

// Seed records the items a Lookup of the registration's template found,
// then passes on the events held until now.
func (c *LookupCache) Seed(items []ServiceItem) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range items {
		c.items[items[i].ID] = &items[i]
	}
	for _, ev := range c.held {
		c.eventLocked(ev)
	}
	c.seeded, c.held = true, nil
}

func (c *LookupCache) eventLocked(ev ServiceEvent) {
	if ev.Item != nil {
		c.items[ev.ID] = ev.Item
	} else {
		ev.Item = c.items[ev.ID]
		delete(c.items, ev.ID)
	}
	c.fn(ev)
}
