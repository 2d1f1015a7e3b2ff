package core

import "sync/atomic"

// EventFor is the event rule, held once: a provider reports what
// changed, as names absolute in its namespace, and EventFor returns what
// a watch on target with scope sees of it, or false for nothing. A
// rename (EventObjectRenamed) moved oldName to name: with both in scope
// it is one event, with only oldName its removal, with only name its
// addition. Names come back relative to target.
func EventFor(target Name, scope SearchScope, typ EventType, name, oldName Name, newV, oldV any) (NamingEvent, bool) {
	rel := func(n Name) (string, bool) {
		if !n.StartsWith(target) || !scope.Covers(n.Size()-target.Size()) {
			return "", false
		}
		return n.Suffix(target.Size()).String(), true
	}
	ev := NamingEvent{Type: typ, NewValue: newV, OldValue: oldV}
	var in, oldIn bool
	ev.Name, in = rel(name)
	if typ == EventObjectRenamed {
		switch ev.OldName, oldIn = rel(oldName); {
		case !in:
			ev, in = NamingEvent{Type: EventObjectRemoved, Name: ev.OldName, OldValue: oldV}, oldIn
		case !oldIn:
			ev = NamingEvent{Type: EventObjectAdded, Name: ev.Name, NewValue: newV}
		}
	}
	return ev, in
}

// WatchLoss ties a watch registration to its event channel. The watch
// ends once, by cancel or by its loss: done closing (nil never does) or
// lose being called. A loss runs lost (a provider counts it there) and
// gives l one EventWatchLost. Either way unregister runs once.
func WatchLoss(done <-chan struct{}, l Listener, lost, unregister func()) (cancel, lose func()) {
	var ended atomic.Bool
	stop := make(chan struct{})
	end := func(isLost bool) {
		if ended.Swap(true) {
			return
		}
		close(stop)
		if isLost {
			lost()
			l(NamingEvent{Type: EventWatchLost})
		}
		unregister()
	}
	if done != nil {
		go func() {
			select {
			case <-done:
				end(true)
			case <-stop:
			}
		}()
	}
	return func() { end(false) }, func() { end(true) }
}
