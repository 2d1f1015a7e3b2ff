package hdns

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"gondi/internal/h2o"
	"gondi/internal/jgroups"
)

// PlugletType is the repository type name under which the HDNS pluglet
// registers with an H2O kernel.
const PlugletType = "hdns.Node"

// RegisterPluglet adds the HDNS node factory to an H2O kernel's
// repository, enabling the paper's §4.3 deployment story: "owing to
// dynamic deployment features of H2O, HDNS service can be dynamically
// deployed on participating nodes", with the kernel supplying the
// security infrastructure and the event-distribution mechanism.
//
// Deployment configuration keys:
//
//	group     replication group name (default "hdns")
//	listen    client TCP address (default "127.0.0.1:0")
//	bind      transport UDP address (default "127.0.0.1:0")
//	peers     comma-separated transport peers
//	snapshot  replica snapshot path; the write-ahead log is the sibling
//	          directory <snapshot>.wal ("" keeps the replica in memory)
//	snapshot-interval-ms  WAL fsync and compaction-check period (default 5000)
//	secret    client write secret
//	mode      "bimodal" (default) or "vsync"
//
// The running node publishes change events on the kernel bus under
// "<deployment-name>/…" topics via NodeConfig.Kernel.
func RegisterPluglet(k *h2o.Kernel) {
	k.RegisterType(PlugletType, func(config map[string]string) (h2o.Pluglet, error) {
		return &nodePluglet{config: config, kernel: k}, nil
	})
}

type nodePluglet struct {
	config map[string]string
	kernel *h2o.Kernel

	mu   sync.Mutex
	node *Node
}

// Node returns the running node (nil while stopped).
func (p *nodePluglet) Node() *Node {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.node
}

// Start implements h2o.Pluglet.
func (p *nodePluglet) Start(ctx *h2o.PlugletContext) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.node != nil {
		return fmt.Errorf("hdns: pluglet %q already running", ctx.Name)
	}
	get := func(key, def string) string {
		if v := p.config[key]; v != "" {
			return v
		}
		return def
	}
	var peers []string
	if s := p.config["peers"]; s != "" {
		peers = strings.Split(s, ",")
	}
	tr, err := jgroups.NewUDPTransport(get("bind", "127.0.0.1:0"), peers)
	if err != nil {
		return err
	}
	stack := jgroups.DefaultConfig()
	if get("mode", "bimodal") == "vsync" {
		stack = jgroups.VirtualSynchronyConfig()
	}
	snapshotInterval := 5 * time.Second
	if s := p.config["snapshot-interval-ms"]; s != "" {
		if ms, err := strconv.Atoi(s); err == nil && ms > 0 {
			snapshotInterval = time.Duration(ms) * time.Millisecond
		}
	}
	node, err := NewNode(NodeConfig{
		Group:            get("group", "hdns"),
		Transport:        tr,
		Stack:            stack,
		ListenAddr:       get("listen", "127.0.0.1:0"),
		SnapshotPath:     p.config["snapshot"],
		SnapshotInterval: snapshotInterval,
		Secret:           p.config["secret"],
		Kernel:           p.kernel,
	})
	if err != nil {
		tr.Close()
		return err
	}
	p.node = node
	ctx.Publish("started", node.Addr())
	return nil
}

// Stop implements h2o.Pluglet: the node persists its replica and leaves
// the group.
func (p *nodePluglet) Stop() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.node == nil {
		return nil
	}
	err := p.node.Close()
	p.node = nil
	return err
}
