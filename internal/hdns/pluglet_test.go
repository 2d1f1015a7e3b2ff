package hdns

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gondi/internal/h2o"
)

// The §4.3 hosting story: HDNS deployed into an H2O kernel, secured by
// kernel policy, publishing change events on the kernel bus.
func TestPlugletLifecycle(t *testing.T) {
	ctx := context.Background()
	k := h2o.NewKernel()
	RegisterPluglet(k)

	snap := filepath.Join(t.TempDir(), "replica.snap")
	if err := k.Deploy("", "naming", PlugletType, map[string]string{
		"group":    "pluglet-test",
		"snapshot": snap,
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.Start("", "naming"); err != nil {
		t.Fatal(err)
	}

	// The kernel bus carries HDNS change events.
	var mu sync.Mutex
	var topics []string
	cancel := k.Subscribe("hdns/*", func(e h2o.Event) {
		mu.Lock()
		topics = append(topics, e.Topic)
		mu.Unlock()
	})
	defer cancel()

	infos := k.List()
	if len(infos) != 1 || infos[0].State != h2o.StateRunning {
		t.Fatalf("deployments = %+v", infos)
	}

	// Reach the running node by dialing the address it publishes on the
	// "started" event.
	addrC := make(chan string, 1)
	cancel2 := k.Subscribe("naming/started", func(e h2o.Event) {
		if s, ok := e.Payload.(string); ok {
			select {
			case addrC <- s:
			default:
			}
		}
	})
	defer cancel2()
	// The started event fired before we subscribed; restart to re-fire.
	if err := k.Stop("", "naming"); err != nil {
		t.Fatal(err)
	}
	if err := k.Start("", "naming"); err != nil {
		t.Fatal(err)
	}
	var addr string
	select {
	case addr = <-addrC:
	case <-time.After(3 * time.Second):
		t.Fatal("no started event")
	}

	c, err := Dial(addr, "", 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do(ctx, &Op{Kind: OpBind, Name: []string{"hosted"}, Obj: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(topics)
		mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no hdns/* event on the kernel bus")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Undeploy stops the node and persists the replica.
	if err := k.Undeploy("", "naming"); err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(addr, "", 300*time.Millisecond); err == nil {
		t.Fatal("node still serving after undeploy")
	}
}

// Kernel security gates deployment, per the paper's "control access via
// user-defined security policies".
func TestPlugletDeploymentRequiresPolicy(t *testing.T) {
	k := h2o.NewKernel()
	RegisterPluglet(k)
	k.AddPrincipal("operator", "pw")
	k.Policy().Grant("operator", h2o.ActionDeploy, h2o.ActionStart, h2o.ActionStop, h2o.ActionUndeploy)
	k.AddPrincipal("guest", "guest")

	// Guests may not deploy the naming service.
	gtok, err := k.Authenticate("guest", "guest")
	if err != nil {
		t.Fatal(err)
	}
	err = k.Deploy(gtok, "naming", PlugletType, map[string]string{"group": "sec-test"})
	if !errors.Is(err, h2o.ErrDenied) {
		t.Fatalf("guest deploy: %v", err)
	}
	// Operators may.
	otok, err := k.Authenticate("operator", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Deploy(otok, "naming", PlugletType, map[string]string{"group": "sec-test"}); err != nil {
		t.Fatal(err)
	}
	if err := k.Start(otok, "naming"); err != nil {
		t.Fatal(err)
	}
	if err := k.Undeploy(otok, "naming"); err != nil {
		t.Fatal(err)
	}
}
