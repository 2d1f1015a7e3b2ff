// Package jgroups is the group-communication substrate HDNS replicates
// over (§4.2 of the paper): process groups with reliable multicast,
// failure detection, coordinator-driven membership views, state transfer,
// and recovery from network partitions.
//
// Two quality-of-service suites are provided, mirroring the paper's
// discussion:
//
//   - ModeVirtualSynchrony: a coordinator-sequencer totally orders all
//     messages and a flush protocol makes delivery view-synchronous
//     (atomic broadcast); the whole group runs at the speed of its
//     slowest member.
//   - ModeBimodal: senders multicast best-effort and an anti-entropy
//     gossip protocol repairs losses probabilistically (Birman et al.'s
//     bimodal multicast); better scalability, weaker guarantees. This is
//     the HDNS default, as in the paper.
//
// After a transient partition heals, the PRIMARY PARTITION protocol
// (§4.3) selects the partition deemed to have the valid state — the
// larger side, ties broken by smallest member address — and forces the
// other side to re-synchronize via state transfer.
package jgroups

import (
	"fmt"
	"time"
)

// Address identifies a group member uniquely within a transport domain.
type Address string

// View is an installed membership view. Members are ordered by seniority;
// the first member is the coordinator.
type View struct {
	// ID increases monotonically with every installed view (across
	// merges the maximum of the merged sides plus one).
	ID uint64
	// Members in seniority order; Members[0] coordinates.
	Members []Address
}

// Coord returns the coordinator of the view.
func (v *View) Coord() Address {
	if v == nil || len(v.Members) == 0 {
		return ""
	}
	return v.Members[0]
}

// Contains reports membership of addr.
func (v *View) Contains(addr Address) bool {
	if v == nil {
		return false
	}
	for _, m := range v.Members {
		if m == addr {
			return true
		}
	}
	return false
}

// Clone deep-copies the view.
func (v *View) Clone() *View {
	if v == nil {
		return nil
	}
	m := make([]Address, len(v.Members))
	copy(m, v.Members)
	return &View{ID: v.ID, Members: m}
}

func (v *View) String() string {
	return fmt.Sprintf("view[%d|%v]", v.ID, v.Members)
}

// Mode selects the protocol suite.
type Mode int

// Protocol suites.
const (
	// ModeVirtualSynchrony totally orders messages through the
	// coordinator and flushes on view changes.
	ModeVirtualSynchrony Mode = iota
	// ModeBimodal multicasts best-effort with gossip anti-entropy.
	ModeBimodal
)

func (m Mode) String() string {
	if m == ModeBimodal {
		return "bimodal"
	}
	return "virtual-synchrony"
}

// Config tunes a channel's protocol stack, the analog of the JGroups
// protocol stack configuration string.
type Config struct {
	Mode Mode
	// HeartbeatInterval is the failure-detector beat period.
	HeartbeatInterval time.Duration
	// SuspectAfter marks a member suspected when no heartbeat arrived
	// for this long.
	SuspectAfter time.Duration
	// GossipInterval is the anti-entropy round period (bimodal only).
	GossipInterval time.Duration
	// RetransmitTimeout is how long a delivery gap may persist before a
	// NAK is sent (virtual synchrony only).
	RetransmitTimeout time.Duration
	// MergeInterval is how often a coordinator announces itself to
	// detect partitions to merge.
	MergeInterval time.Duration
	// JoinTimeout bounds Connect.
	JoinTimeout time.Duration
	// MaxPending bounds each out-of-order delivery buffer: per-sender in
	// bimodal mode, global in virtual synchrony. When full, the
	// newest buffered packet is dropped (LIFO shed) and recovered later
	// by gossip repair / NAK retransmission — bounded memory under a
	// storm instead of the Figure 5 collapse. 0 uses DefaultMaxPending;
	// negative disables the bound (the paper's unbounded behaviour, kept
	// for the benchmark's "collapse" arm).
	MaxPending int
	// SendWindow is the sender credit window: Send blocks once this many
	// of the member's own messages are unacknowledged by the slowest
	// view member (acks ride heartbeat/gossip digests). Backpressure
	// replaces unbounded receiver queues — replication writes slow to
	// the group's drain rate instead of burying a lagging member. 0 uses
	// DefaultSendWindow; negative disables backpressure.
	SendWindow int
}

// Defaults for the buffer bounds.
const (
	DefaultMaxPending = 2048
	DefaultSendWindow = 1024
)

// DefaultConfig returns the stack used by HDNS by default (bimodal, as in
// the paper).
func DefaultConfig() Config {
	return Config{
		Mode:              ModeBimodal,
		HeartbeatInterval: 150 * time.Millisecond,
		SuspectAfter:      900 * time.Millisecond,
		GossipInterval:    100 * time.Millisecond,
		RetransmitTimeout: 120 * time.Millisecond,
		MergeInterval:     300 * time.Millisecond,
		JoinTimeout:       5 * time.Second,
	}
}

// VirtualSynchronyConfig returns the atomic-broadcast stack.
func VirtualSynchronyConfig() Config {
	c := DefaultConfig()
	c.Mode = ModeVirtualSynchrony
	return c
}

// packet kinds.
type kind uint8

const (
	kData          kind = iota + 1 // sequenced multicast data (VS)
	kDataFwd                       // member -> coordinator: please sequence
	kDataBimodal                   // best-effort multicast data (bimodal)
	kJoinReq                       // joiner -> coordinator
	kJoinRsp                       // coordinator -> joiner (view)
	kLeave                         // member -> coordinator
	kView                          // coordinator -> members: install view
	kFlushStart                    // coordinator -> members
	kFlushAck                      // member -> coordinator (delivered digest)
	kHeartbeat                     // bidirectional liveness
	kNakReq                        // member -> coordinator: retransmit seqs
	kGossip                        // bimodal digest
	kGossipRsp                     // bimodal repair
	kStateReq                      // member -> coordinator
	kStateRsp                      // coordinator -> member
	kDiscover                      // broadcast: who coordinates <group>?
	kDiscoverRsp                   // coordinator -> requester
	kMergeAnnounce                 // coordinator broadcast for merge detection
	kMergeView                     // merge leader -> everyone: merged view
)

func (k kind) String() string {
	names := [...]string{"?", "data", "dataFwd", "dataBimodal", "joinReq", "joinRsp",
		"leave", "view", "flushStart", "flushAck", "heartbeat", "nakReq",
		"gossip", "gossipRsp", "stateReq", "stateRsp", "discover", "discoverRsp",
		"mergeAnnounce", "mergeView"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Packet is the single wire unit exchanged by all protocol layers. Typed
// fields replace JGroups' per-protocol headers; each layer reads only the
// fields it owns.
type Packet struct {
	Kind  kind
	Group string
	Src   Address
	Dest  Address // "" on broadcasts

	// Data path.
	Seq     uint64  // global seq (VS) or per-sender seq (bimodal)
	From    Address // original sender (survives forwarding/retransmission)
	Payload []byte

	// Membership / flush / merge.
	View    *View
	Addrs   []Address // merge: members of the primary partition
	ViewID  uint64
	Digest  map[Address]uint64 // per-sender delivered seqs (acks, gossip)
	Seqs    []uint64           // NAK requests
	Packets []*Packet          // gossip repair bundles
	Bool    bool               // generic flag (e.g. state requested)
	Err     string
}

// MergeEvent notifies the application that a partition merge completed.
type MergeEvent struct {
	// Primary is true on members whose partition was selected by the
	// PRIMARY PARTITION protocol; their state is authoritative. Members
	// of non-primary partitions must resynchronize (the channel pulls
	// fresh state automatically; SetState fires before this event on
	// non-primary members).
	Primary bool
	View    *View
}

// Receiver is the application-facing callback set.
//
// All callbacks run on one goroutine, the channel's protocol loop, one
// at a time and in delivery order: each member sees a view change at the
// same point of the message stream, and a non-primary member's SetState
// comes before its Merge. No callback may call Send, Close or Connect on
// its channel; each waits on that loop and would deadlock it. The
// accessors (View, IsCoordinator, PendingLen, Outstanding) are safe.
type Receiver struct {
	// Deliver is called with each delivered group message (including
	// the member's own), in delivery order. Required.
	Deliver func(src Address, payload []byte)
	// ViewChange is called after each installed view. Optional.
	ViewChange func(v *View)
	// GetState must return a snapshot of application state for
	// transfer to joiners. Optional (nil disables state transfer).
	GetState func() []byte
	// SetState replaces application state from a transfer. Optional.
	SetState func(state []byte)
	// Merge is called after partition merges complete. Optional.
	Merge func(e MergeEvent)
}
