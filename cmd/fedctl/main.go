// Command fedctl is the federation client: it resolves composite URL
// names across every registered provider (jini, hdns, dns, ldap, file,
// mem), following federation continuations transparently — the
// command-line face of the paper's unified API.
//
//	fedctl lookup  dns://127.0.0.1:5353/global/emory/mathcs/dcl/mokey
//	fedctl bind    hdns://127.0.0.1:7001/services/db "10.0.0.5:5432"
//	fedctl rebind  ldap://127.0.0.1:3890/dc=x/cn=cfg '{"mode":"prod"}'
//	fedctl unbind  hdns://127.0.0.1:7001/services/db
//	fedctl list    jini://127.0.0.1:4160/
//	fedctl attrs   dns://127.0.0.1:5353/global/emory
//	fedctl search  hdns://127.0.0.1:7001/ '(type=compute)'
//	fedctl mkctx   hdns://127.0.0.1:7001/services
//	fedctl link    hdns://127.0.0.1:7001/dcl ldap://127.0.0.1:3890/dc=x
//	fedctl watch   hdns://127.0.0.1:7001/services
//
// "link" binds a reference to the second URL's context under the first
// name — the §6 federation-building primitive.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"gondi/internal/cache"
	"gondi/internal/core"
	"gondi/internal/obs"
	"gondi/internal/provider/dnssp"
	"gondi/internal/provider/fssp"
	"gondi/internal/provider/hdnssp"
	"gondi/internal/provider/jinisp"
	"gondi/internal/provider/jxtasp"
	"gondi/internal/provider/ldapsp"
	"gondi/internal/provider/memsp"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage: fedctl <command> <url-name> [args]
commands:
  lookup <name>             resolve and print the bound object
  bind   <name> <value>     bind a string value (fails if bound)
  rebind <name> <value>     bind, overwriting
  unbind <name>             remove a binding
  list   <name>             list a context
  attrs  <name>             print a name's attributes
  search <name> <filter>    RFC 4515 filter search
  mkctx  <name>             create a subcontext
  rmctx  <name>             destroy an empty subcontext
  link   <name> <url>       bind a federation reference to <url> at <name>
  watch  <name>             stream change events until interrupted
  proxy  <host:port>        faulting relay in front of a server (chaos drills)
flags:
  -timeout                  per-operation deadline (default 10s, 0 = none)
  -principal / -credentials authentication (where the provider supports it)
  -secret                   HDNS write secret
  -cache                    read-through federation cache for repeated resolutions
  -cache-ttl                positive-entry TTL for event-less providers (0 = default)
  -cache-neg-ttl            not-found entry TTL (0 = default)
  -cache-max                max cached entries per naming system (0 = default)
  -cache-no-events          TTL-only coherence, ignore provider change events
  -trace                    print the federation trace (one line per hop) after the command
  -obs.addr                 observability HTTP address (/metrics, /debug/vars, /debug/pprof)
  -obs.hold                 keep serving -obs.addr this long after the command completes
  -fault-*                  proxy: seedable fault schedule (latency, drops, resets,
                            torn frames) plus -fault-cut-after / -fault-heal-after
                            for a scripted crash; -fault-udp relays UDP too`)
	os.Exit(2)
}

func main() {
	principal := flag.String("principal", "", "security principal")
	credentials := flag.String("credentials", "", "security credentials")
	secret := flag.String("secret", "", "HDNS write secret")
	timeout := flag.Duration("timeout", 10*time.Second, "per-operation deadline (0 disables)")
	jiniBind := flag.String("jini-bind", "", "Jini bind semantics: strict, relaxed, or proxy")
	jiniProxy := flag.String("jini-proxy", "", "BindProxy address for -jini-bind proxy")
	useCache := flag.Bool("cache", false, "enable the read-through federation cache")
	cacheTTL := flag.Duration("cache-ttl", 0, "cache: positive-entry TTL (0 = default)")
	cacheNegTTL := flag.Duration("cache-neg-ttl", 0, "cache: not-found entry TTL (0 = default)")
	cacheMax := flag.Int("cache-max", 0, "cache: max entries per naming system (0 = default)")
	cacheNoEvents := flag.Bool("cache-no-events", false, "cache: TTL-only coherence, ignore change events")
	showTrace := flag.Bool("trace", false, "print the federation trace after the command")
	obsAddr := flag.String("obs.addr", "", "observability HTTP address serving /metrics, /debug/vars and /debug/pprof (empty = off)")
	obsHold := flag.Duration("obs.hold", 0, "keep serving -obs.addr this long after the command completes")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 2 {
		usage()
	}
	cmd, name := args[0], args[1]

	jinisp.Register()
	hdnssp.Register()
	dnssp.Register()
	ldapsp.Register()
	fssp.Register()
	memsp.Register()
	jxtasp.Register()

	// The obs middleware is always installed: it is what turns each
	// command into a federation trace (-trace, /debug/vars) and costs
	// nothing observable at fedctl's interactive scale.
	opts := []core.Option{core.WithMiddleware(obs.NewMiddleware())}
	if *principal != "" {
		opts = append(opts, core.WithEnv(core.EnvPrincipal, *principal))
	}
	if *credentials != "" {
		opts = append(opts, core.WithEnv(core.EnvCredentials, *credentials))
	}
	if *secret != "" {
		opts = append(opts, core.WithEnv(hdnssp.EnvSecret, *secret))
	}
	if *jiniBind != "" {
		opts = append(opts, core.WithEnv(jinisp.EnvBind, *jiniBind))
	}
	if *jiniProxy != "" {
		opts = append(opts, core.WithEnv(jinisp.EnvProxyAddr, *jiniProxy))
	}
	if *useCache {
		cache.Register()
		opts = append(opts, core.WithCache(cache.Config{
			TTL:           *cacheTTL,
			NegativeTTL:   *cacheNegTTL,
			MaxEntries:    *cacheMax,
			DisableEvents: *cacheNoEvents,
		}))
	}

	// Every command below runs under this deadline: it propagates through
	// the initial context into the provider and onto the wire, and across
	// federation hops, so a wedged backend ends with DeadlineExceeded
	// instead of a hang. Ctrl-C cancels in-flight operations the same way.
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if cmd == "proxy" {
		if err := runFaultProxy(sigCtx, name); err != nil {
			fmt.Fprintf(os.Stderr, "fedctl: %v\n", err)
			os.Exit(1)
		}
		return
	}
	ctx := sigCtx
	if *timeout > 0 && cmd != "watch" {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var osrv *obs.Server
	{
		var err error
		osrv, err = obs.Serve(*obsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fedctl: obs: %v\n", err)
			os.Exit(1)
		}
		if osrv != nil {
			fmt.Fprintf(os.Stderr, "fedctl: observability at http://%s/metrics\n", osrv.Addr())
			defer osrv.Close()
		}
	}
	// finishObs runs before a successful exit: it prints the recorded
	// federation trace and keeps the observability endpoint alive for
	// -obs.hold so an operator can curl /debug/vars after the command.
	finishObs := func() {
		if *showTrace {
			for _, t := range obs.RecentTraces(8) {
				fmt.Fprintln(os.Stderr, t)
			}
		}
		if osrv != nil && *obsHold > 0 {
			// Hold against the signal context, not the per-op deadline:
			// the hold outlives the command on purpose.
			fmt.Fprintf(os.Stderr, "fedctl: holding observability endpoint for %s\n", *obsHold)
			select {
			case <-time.After(*obsHold):
			case <-sigCtx.Done():
			}
		}
	}
	die := func(err error) {
		if err != nil {
			if *showTrace {
				for _, t := range obs.RecentTraces(8) {
					fmt.Fprintln(os.Stderr, t)
				}
			}
			fmt.Fprintf(os.Stderr, "fedctl: %v\n", err)
			os.Exit(1)
		}
	}
	ic, err := core.Open(ctx, opts...)
	die(err)
	defer ic.Close()
	need := func(n int) {
		if len(args) < n {
			usage()
		}
	}

	switch cmd {
	case "lookup":
		obj, err := ic.Lookup(ctx, name)
		die(err)
		if _, ok := obj.(core.Context); ok {
			fmt.Println("<naming context>")
		} else {
			fmt.Printf("%v\n", obj)
		}
	case "bind":
		need(3)
		die(ic.Bind(ctx, name, args[2]))
	case "rebind":
		need(3)
		die(ic.Rebind(ctx, name, args[2]))
	case "unbind":
		die(ic.Unbind(ctx, name))
	case "list":
		pairs, err := ic.List(ctx, name)
		die(err)
		for _, p := range pairs {
			fmt.Printf("%-30s %s\n", p.Name, p.Class)
		}
	case "attrs":
		attrs, err := ic.GetAttributes(ctx, name)
		die(err)
		all := attrs.All()
		sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
		for _, a := range all {
			for _, v := range a.Values {
				fmt.Printf("%-12s %s\n", a.ID, v)
			}
		}
	case "search":
		need(3)
		res, err := ic.Search(ctx, name, args[2], &core.SearchControls{Scope: core.ScopeSubtree})
		die(err)
		for _, r := range res {
			fmt.Printf("%-30s %s %s\n", r.Name, r.Class, r.Attributes)
		}
	case "mkctx":
		_, err := ic.CreateSubcontext(ctx, name)
		die(err)
	case "rmctx":
		die(ic.DestroySubcontext(ctx, name))
	case "link":
		need(3)
		die(ic.Bind(ctx, name, core.NewContextReference(args[2])))
	case "watch":
		cancel, err := ic.Watch(ctx, name, core.ScopeSubtree, func(e core.NamingEvent) {
			if e.Type == core.EventObjectRenamed {
				fmt.Printf("%s %q -> %q new=%v\n", e.Type, e.OldName, e.Name, e.NewValue)
				return
			}
			fmt.Printf("%s %q new=%v old=%v\n", e.Type, e.Name, e.NewValue, e.OldValue)
		})
		die(err)
		defer cancel()
		fmt.Fprintf(os.Stderr, "fedctl: watching %s (interrupt to stop)\n", name)
		<-ctx.Done()
	default:
		usage()
	}
	finishObs()
}
