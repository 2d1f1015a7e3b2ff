package memsp_test

import (
	"context"
	"fmt"

	"gondi/internal/core"
	"gondi/internal/provider/memsp"
)

// The canonical client workflow: register providers once, then address
// everything through one InitialContext with URL-form composite names —
// the paper's access-homogeneity claim in ten lines.
func Example() {
	ctx := context.Background()
	memsp.ResetSpaces()
	memsp.Register()
	ic, _ := core.Open(ctx)
	defer ic.Close()

	// Bind <name, object, attributes> tuples.
	_, _ = ic.CreateSubcontext(ctx, "mem://campus/printers")
	_ = ic.BindAttrs(ctx, "mem://campus/printers/laser-1", "ipp://10.0.0.12:631",
		core.NewAttributes("location", "room-215", "color", "no"))
	_ = ic.BindAttrs(ctx, "mem://campus/printers/ink-1", "ipp://10.0.0.13:631",
		core.NewAttributes("location", "room-110", "color", "yes"))

	// Lookup by composite URL name.
	obj, _ := ic.Lookup(ctx, "mem://campus/printers/laser-1")
	fmt.Println("lookup:", obj)

	// Attribute-based search with RFC 4515 filters.
	res, _ := ic.Search(ctx, "mem://campus/printers", "(color=yes)",
		&core.SearchControls{Scope: core.ScopeSubtree})
	for _, r := range res {
		fmt.Println("color printer:", r.Name)
	}

	// Atomic bind: the name is taken.
	err := ic.Bind(ctx, "mem://campus/printers/laser-1", "conflict")
	fmt.Println("rebind conflict:", err)

	// Output:
	// lookup: ipp://10.0.0.12:631
	// color printer: ink-1
	// rebind conflict: naming: bind "printers/laser-1": name already bound
}

// Federation: binding one naming system's context into another makes a
// single composite name span both (§6 of the paper).
func Example_federation() {
	ctx := context.Background()
	memsp.ResetSpaces()
	memsp.Register()
	ic, _ := core.Open(ctx)
	defer ic.Close()

	// The "leaf" naming system holds the object.
	_ = ic.Bind(ctx, "mem://leaf/mokey", "the-object")
	// Link it into the "root" naming system.
	_ = ic.Bind(ctx, "mem://root/dcl", core.NewContextReference("mem://leaf"))

	// One name, two naming systems, transparent continuation.
	obj, _ := ic.Lookup(ctx, "mem://root/dcl/mokey")
	fmt.Println(obj)

	// Output:
	// the-object
}
