// Quickstart: one unified API over two very different naming services.
//
// This example starts an in-process Jini lookup service and a one-node
// HDNS group, registers both URL providers, and then talks to both
// through the same InitialContext — bind, lookup, attributes, search —
// without caring which technology sits behind each URL. That access
// homogeneity is the paper's core claim.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"gondi/internal/core"
	"gondi/internal/hdns"
	"gondi/internal/jgroups"
	"gondi/internal/jini"
	"gondi/internal/provider/hdnssp"
	"gondi/internal/provider/jinisp"
)

func main() {
	// --- Infrastructure: a Jini LUS and an HDNS node (normally these
	// are long-running daemons: jinilusd, hdnsd). ---
	lus, err := jini.NewLUS(jini.LUSConfig{ListenAddr: "127.0.0.1:0"})
	if err != nil {
		log.Fatal(err)
	}
	defer lus.Close()

	node, err := hdns.NewNode(hdns.NodeConfig{
		Group:      "quickstart",
		Transport:  jgroups.NewFabric().Endpoint("node-1"),
		ListenAddr: "127.0.0.1:0",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer node.Close()

	// --- Client side: register providers once, then use URL names. ---
	jinisp.Register()
	hdnssp.Register()

	// Every operation takes a context first; its deadline rides the wire
	// to the backing service, whichever technology that turns out to be.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	// core.Open builds the initial context (core.WithPrincipal,
	// core.WithCache, ... compose here); with no options it is an empty
	// environment, in which URL-form names resolve.
	ic, err := core.Open(ctx)
	if err != nil {
		log.Fatal(err)
	}
	defer ic.Close()

	jiniURL := "jini://" + lus.Addr()
	hdnsURL := "hdns://" + node.Addr()

	// The same operations work against both services.
	for _, base := range []string{jiniURL, hdnsURL} {
		if _, err := ic.CreateSubcontext(ctx, base+"/printers"); err != nil {
			log.Fatal(err)
		}
		if err := ic.BindAttrs(ctx, base+"/printers/laser-1", "ipp://10.0.0.12:631",
			core.NewAttributes("location", "room-215", "color", "no")); err != nil {
			log.Fatal(err)
		}
		if err := ic.BindAttrs(ctx, base+"/printers/ink-1", "ipp://10.0.0.13:631",
			core.NewAttributes("location", "room-110", "color", "yes")); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("== lookup through both providers ==")
	for _, base := range []string{jiniURL, hdnsURL} {
		obj, err := ic.Lookup(ctx, base+"/printers/laser-1")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-40s -> %v\n", base+"/printers/laser-1", obj)
	}

	fmt.Println("== attribute search: color printers, either service ==")
	for _, base := range []string{jiniURL, hdnsURL} {
		res, err := ic.Search(ctx, base+"/printers", "(color=yes)",
			&core.SearchControls{Scope: core.ScopeSubtree, ReturnObject: true})
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range res {
			fmt.Printf("  [%s] %s -> %v %s\n", base, r.Name, r.Object, r.Attributes)
		}
	}

	fmt.Println("== atomic bind: second bind of a taken name fails ==")
	err = ic.Bind(ctx, hdnsURL+"/printers/laser-1", "conflict")
	fmt.Printf("  hdns: %v\n", err)
	err = ic.Bind(ctx, jiniURL+"/printers/laser-1", "conflict")
	fmt.Printf("  jini: %v\n", err)

	fmt.Println("== listing is uniform too ==")
	pairs, err := ic.List(ctx, hdnsURL+"/printers")
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pairs {
		fmt.Printf("  %-12s %s\n", p.Name, p.Class)
	}
	fmt.Println("done")
}
