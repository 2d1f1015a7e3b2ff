package jxta

import (
	"context"
	"errors"
	"testing"
	"time"

	"gondi/internal/core"
)

func newPair(t *testing.T) (*Rendezvous, *Peer) {
	t.Helper()
	r, err := NewRendezvous("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	p, err := DialPeer(r.Addr(), 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return r, p
}

func TestGroupHierarchy(t *testing.T) {
	ctx := context.Background()
	_, p := newPair(t)
	if err := p.CreateGroup(ctx, "net/campus"); err != nil {
		t.Fatal(err)
	}
	// Paths are rooted at "net" implicitly.
	if err := p.CreateGroup(ctx, "campus/sensors"); err != nil {
		t.Fatal(err)
	}
	if err := p.CreateGroup(ctx, "net/campus"); err == nil {
		t.Fatal("duplicate group created")
	}
	// Orphan groups fail.
	if err := p.CreateGroup(ctx, "net/ghost/deep"); err == nil {
		t.Fatal("orphan group created")
	}
	subs, err := p.SubGroups(ctx, "net")
	if err != nil || len(subs) != 1 || subs[0] != "campus" {
		t.Fatalf("SubGroups(net) = %v, %v", subs, err)
	}
	subs, err = p.SubGroups(ctx, "net/campus")
	if err != nil || len(subs) != 1 || subs[0] != "sensors" {
		t.Fatalf("SubGroups(campus) = %v, %v", subs, err)
	}
	// Non-empty groups cannot be destroyed.
	if err := p.DestroyGroup(ctx, "net/campus"); err == nil {
		t.Fatal("destroyed non-empty group")
	}
	if err := p.DestroyGroup(ctx, "net/campus/sensors"); err != nil {
		t.Fatal(err)
	}
	if err := p.DestroyGroup(ctx, "net/campus"); err != nil {
		t.Fatal(err)
	}
	// A missing group is not found; a JNDI provider's name-resolution
	// rule makes destroying a missing terminal name succeed.
	if err := p.DestroyGroup(ctx, "net/campus"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("destroy a missing group: %v", err)
	}
}

func TestPublishDiscover(t *testing.T) {
	ctx := context.Background()
	_, p := newPair(t)
	if err := p.CreateGroup(ctx, "net/lab"); err != nil {
		t.Fatal(err)
	}
	adv, err := p.Publish(ctx, Advertisement{
		Group:   "net/lab",
		Name:    "myObject",
		Attrs:   map[string][]string{"Type": {"pipe"}, "owner": {"alice"}},
		Payload: []byte("pipe-endpoint"),
	}, time.Minute, true)
	if err != nil {
		t.Fatal(err)
	}
	if adv.ID == "" || adv.Expiry == 0 {
		t.Fatalf("adv = %+v", adv)
	}
	// Atomic first-publish.
	if _, err := p.Publish(ctx, Advertisement{Group: "net/lab", Name: "myObject"}, time.Minute, true); err == nil {
		t.Fatal("onlyNew republish succeeded")
	}
	// Overwrite keeps the ID (and replaces the document wholesale).
	adv2, err := p.Publish(ctx, Advertisement{
		Group: "net/lab", Name: "myObject", Payload: []byte("v2"),
		Attrs: map[string][]string{"owner": {"alice"}},
	}, time.Minute, false)
	if err != nil {
		t.Fatal(err)
	}
	if adv2.ID != adv.ID {
		t.Fatalf("overwrite changed ID: %s -> %s", adv.ID, adv2.ID)
	}
	// Discovery by name and by attribute.
	advs, err := p.Discover(ctx, "net/lab", "myObject", nil, 0)
	if err != nil || len(advs) != 1 || string(advs[0].Payload) != "v2" {
		t.Fatalf("discover by name = %+v, %v", advs, err)
	}
	if _, err := p.Publish(ctx, Advertisement{
		Group: "net/lab", Name: "other",
		Attrs: map[string][]string{"type": {"socket"}},
	}, time.Minute, true); err != nil {
		t.Fatal(err)
	}
	advs, err = p.Discover(ctx, "net/lab", "", map[string]string{"type": "socket"}, 0)
	if err != nil || len(advs) != 1 || advs[0].Name != "other" {
		t.Fatalf("discover by attr = %+v, %v", advs, err)
	}
	// Presence query.
	advs, err = p.Discover(ctx, "net/lab", "", map[string]string{"owner": "*"}, 0)
	if err != nil || len(advs) != 1 || advs[0].Name != "myObject" {
		t.Fatalf("presence query = %+v, %v", advs, err)
	}
	// Limit.
	advs, err = p.Discover(ctx, "net/lab", "", nil, 1)
	if err != nil || len(advs) != 1 {
		t.Fatalf("limit = %+v, %v", advs, err)
	}
	// Flush removes.
	if err := p.Flush(ctx, "net/lab", "other"); err != nil {
		t.Fatal(err)
	}
	advs, _ = p.Discover(ctx, "net/lab", "other", nil, 0)
	if len(advs) != 0 {
		t.Fatalf("flushed adv still discoverable: %+v", advs)
	}
}

func TestAdvertisementExpiry(t *testing.T) {
	ctx := context.Background()
	_, p := newPair(t)
	if _, err := p.Publish(ctx, Advertisement{Group: "net", Name: "fleeting"}, 300*time.Millisecond, true); err != nil {
		t.Fatal(err)
	}
	// Renew keeps it alive past the original lifetime.
	time.Sleep(180 * time.Millisecond)
	if _, err := p.Renew(ctx, "net", "fleeting", 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	advs, err := p.Discover(ctx, "net", "fleeting", nil, 0)
	if err != nil || len(advs) != 1 {
		t.Fatalf("renewed adv gone: %+v, %v", advs, err)
	}
	// Stop renewing: it expires.
	deadline := time.Now().Add(3 * time.Second)
	for {
		advs, err := p.Discover(ctx, "net", "fleeting", nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(advs) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("advertisement never expired")
		}
		time.Sleep(40 * time.Millisecond)
	}
}

func TestNormGroup(t *testing.T) {
	cases := map[string]string{
		"":             "net",
		"net":          "net",
		"campus":       "net/campus",
		"net/campus":   "net/campus",
		"/net/campus/": "net/campus",
		"campus/室内":    "net/campus/室内",
	}
	for in, want := range cases {
		got, err := normGroup(in)
		if err != nil || got != want {
			t.Errorf("normGroup(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := normGroup("net//x"); err == nil {
		t.Error("empty segment accepted")
	}
}
