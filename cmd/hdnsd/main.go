// Command hdnsd runs one HDNS replica: it joins (or founds) a replication
// group over UDP, serves naming clients over TCP, and persists its
// replica to disk.
//
//	hdnsd -listen 127.0.0.1:7001 -group campus \
//	      -bind 127.0.0.1:9001 -peers 127.0.0.1:9002,127.0.0.1:9003 \
//	      -snapshot /var/lib/hdns/replica.snap
//
// Multiple replicas on different machines list each other in -peers. A
// durable replica (-snapshot or -wal; the other defaults to its sibling)
// logs every applied op, and on restart reloads its snapshot, replays
// the log tail and resynchronizes from the group (§4.1 of the paper).
// -mode selects the §4.2 protocol suite.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"gondi/internal/hdns"
	"gondi/internal/jgroups"
	"gondi/internal/obs"
	"gondi/internal/serverutil"
)

func main() {
	shared := serverutil.BindFlags(flag.CommandLine, "127.0.0.1:7001")
	group := flag.String("group", "hdns", "replication group name")
	bind := flag.String("bind", "127.0.0.1:0", "group transport UDP address")
	peers := flag.String("peers", "", "comma-separated peer transport addresses")
	snapshot := flag.String("snapshot", "", "replica snapshot file (empty with -wal empty = memory only; default with -wal: <wal>.snap)")
	interval := flag.Duration("snapshot-interval", 5*time.Second, "WAL fsync and compaction-check period")
	secret := flag.String("secret", "", "write secret required from clients")
	mode := flag.String("mode", "bimodal", "protocol suite: bimodal or vsync")
	walDir := flag.String("wal", "", "write-ahead log directory (default with -snapshot: <snapshot>.wal)")
	compactBytes := flag.Int64("wal-compact-bytes", 0, "WAL size that triggers snapshot compaction (0 = 8 MiB)")
	flag.Parse()
	opts := shared.Options("hdns")

	var peerList []string
	if *peers != "" {
		peerList = strings.Split(*peers, ",")
	}
	tr, err := jgroups.NewUDPTransport(*bind, peerList)
	if err != nil {
		log.Fatalf("hdnsd: transport: %v", err)
	}
	stack := jgroups.DefaultConfig()
	if *mode == "vsync" {
		stack = jgroups.VirtualSynchronyConfig()
	} else if *mode != "bimodal" {
		log.Fatalf("hdnsd: unknown -mode %q", *mode)
	}
	ctrl := opts.Controller()
	node, err := hdns.NewNode(hdns.NodeConfig{
		Group:            *group,
		Transport:        tr,
		Stack:            stack,
		ListenAddr:       opts.ListenAddr,
		SnapshotPath:     *snapshot,
		SnapshotInterval: *interval,
		WALDir:           *walDir,
		CompactBytes:     *compactBytes,
		Secret:           *secret,
		Admission:        ctrl,
	})
	if err != nil {
		log.Fatalf("hdnsd: %v", err)
	}
	view := node.Channel().View()
	fmt.Printf("hdnsd: serving %s group=%s transport=%s members=%v\n",
		node.Addr(), *group, tr.Addr(), view.Members)
	if d := node.Damage(); d.Corrupt() {
		fmt.Printf("hdnsd: local state quarantined (%d files); serving degraded until repaired: %v\n",
			d.Files(), d.Err)
	}
	if osrv, err := obs.Serve(opts.ObsAddr); err != nil {
		log.Fatalf("hdnsd: obs: %v", err)
	} else if osrv != nil {
		defer osrv.Close()
		fmt.Printf("hdnsd: observability at http://%s/metrics\n", osrv.Addr())
	}

	err = serverutil.AwaitShutdown("hdnsd", ctrl, 0, func() error {
		fmt.Println("hdnsd: persisting replica")
		return node.Close()
	})
	if err != nil {
		log.Printf("hdnsd: close: %v", err)
	}
}
