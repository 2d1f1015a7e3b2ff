// Service discovery: the Jini substrate used directly — leases, template
// matching, and remote events (§5.1's raw material).
//
// A "printer service" registers itself with a short lease and keeps it
// alive through a LeaseRenewalManager; a client discovers it by interface
// type and attribute template; a watcher receives remote events as
// services come, change, and go (including by lease expiry, Jini's
// self-healing property).
//
//	go run ./examples/servicediscovery
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"gondi/internal/jini"
)

func main() {
	// One deadline for the demo's control operations; event delivery and
	// lease renewal run on their own clocks in the background.
	ctx, cancelCtx := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancelCtx()

	lus, err := jini.NewLUS(jini.LUSConfig{
		ListenAddr: "127.0.0.1:0",
		Groups:     []string{"building-3"},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer lus.Close()
	jini.Announce(lus)
	defer jini.Withdraw(lus)

	// --- A monitoring client registers for remote events first. ---
	watcher, err := jini.DialRegistrar(lus.Addr(), 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer watcher.Close()
	events := make(chan jini.ServiceEvent, 16)
	cancel, err := watcher.Notify(ctx,
		jini.ServiceTemplate{Types: []string{"print.Service"}},
		jini.TransitionNoMatchMatch|jini.TransitionMatchMatch|jini.TransitionMatchNoMatch,
		time.Minute,
		func(ev jini.ServiceEvent) { events <- ev },
	)
	if err != nil {
		log.Fatal(err)
	}
	defer cancel()

	// --- The printer service registers itself, discovered via group
	// announcement (multicast-style discovery). ---
	regs, err := jini.DiscoverGroup("building-3", 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	printerSide := regs[0]
	defer printerSide.Close()

	reg, err := printerSide.Register(ctx, jini.ServiceItem{
		Types:   []string{"print.Service", "device.Service"},
		Service: []byte("ipp://10.0.0.12:631"),
		Entries: []jini.Entry{
			jini.NewEntry("Name", "name", "laser-1"),
			jini.NewEntry("Location", "floor", "2", "room", "215"),
		},
	}, 400*time.Millisecond) // deliberately short lease
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered service %s (lease until %s)\n",
		reg.ID[:8], reg.Expiry.Format("15:04:05.000"))

	// Keep the lease alive, as the provider does for JNDI bindings.
	lrm := jini.NewLeaseRenewalManager()
	lrm.Manage(printerSide, reg.ID, 400*time.Millisecond)

	// --- A client discovers printers on floor 2 by template. ---
	client, err := jini.DialRegistrar(lus.Addr(), 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	items, err := client.Lookup(ctx, jini.ServiceTemplate{
		Types:   []string{"print.Service"},
		Entries: []jini.Entry{jini.NewEntry("Location", "floor", "2")},
	}, 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, item := range items {
		fmt.Printf("discovered: %s %v\n", item.Service, item.Entries)
	}

	// Attribute change fires a MATCH_MATCH event.
	if _, err := printerSide.Register(ctx, jini.ServiceItem{
		ID:      reg.ID,
		Types:   []string{"print.Service", "device.Service"},
		Service: []byte("ipp://10.0.0.12:631"),
		Entries: []jini.Entry{
			jini.NewEntry("Name", "name", "laser-1"),
			jini.NewEntry("Location", "floor", "2", "room", "219"), // moved!
			jini.NewEntry("Status", "toner", "low"),
		},
	}, 400*time.Millisecond); err != nil {
		log.Fatal(err)
	}

	// The lease lapses once renewals stop: self-healing removal.
	lrm.Stop()

	fmt.Println("events:")
	deadline := time.After(5 * time.Second)
	for got := 0; got < 3; {
		select {
		case ev := <-events:
			got++
			switch ev.Transition {
			case jini.TransitionNoMatchMatch:
				fmt.Printf("  + appeared  %s\n", ev.Item.Service)
			case jini.TransitionMatchMatch:
				fmt.Printf("  ~ changed   %v\n", ev.Item.Entries)
			case jini.TransitionMatchNoMatch:
				fmt.Printf("  - vanished  %s (lease expired)\n", ev.ID[:8])
			}
		case <-deadline:
			log.Fatal("timed out waiting for events")
		}
	}
	fmt.Println("done")
}
