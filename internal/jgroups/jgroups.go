// Package jgroups is the group-communication substrate HDNS replicates
// over (§4.2 of the paper): process groups with reliable multicast,
// failure detection, coordinator-driven membership views, state transfer,
// and recovery from network partitions.
//
// Both quality-of-service suites the paper discusses share one data
// path. The view coordinator sequences every message: a member forwards
// its sends to it, and every member delivers the one numbered stream, so
// the group sees one total order and Send returns once the sender has
// delivered its own message. The coordinator's credit window and the
// members' bounded out-of-order buffers hold it to the group's drain
// rate. A coordinator change continues the sequence from the highest
// seq any survivor delivered, and a joiner adopts the coordinator's
// position. The suites differ only in how a member repairs a gap:
//
//   - ModeVirtualSynchrony: a member NAKs its gaps to the coordinator,
//     and a flush retransmits to stragglers before the coordinator
//     installs a view (atomic broadcast); the whole group runs at the
//     speed of its slowest member.
//   - ModeBimodal: every GossipInterval a member sends its delivered seq
//     to a random peer, which answers with what it misses (Birman et
//     al.'s anti-entropy gossip); a flush retransmits nothing. This is
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
	// ModeVirtualSynchrony repairs gaps by NAK to the coordinator and
	// retransmits to stragglers at each flush.
	ModeVirtualSynchrony Mode = iota
	// ModeBimodal repairs gaps by gossip anti-entropy between peers.
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
	// GossipInterval is the anti-entropy round period (bimodal only):
	// each round sends a random peer this member's delivered seq, which
	// doubles as its ack to the coordinator's credit window.
	GossipInterval time.Duration
	// RetransmitTimeout is how long a member's forwarded sends may go
	// unseen in the stream before it forwards them again, and (virtual
	// synchrony only) how long a delivery gap may persist before a NAK.
	RetransmitTimeout time.Duration
	// MergeInterval is how often a coordinator announces itself to
	// detect partitions to merge.
	MergeInterval time.Duration
	// JoinTimeout bounds Connect.
	JoinTimeout time.Duration
	// MaxPending bounds each member's out-of-order delivery buffer. When
	// full, the newest buffered packet is dropped (LIFO shed) and
	// recovered later by gossip repair / NAK retransmission — bounded
	// memory under a storm instead of the Figure 5 collapse. 0 uses
	// DefaultMaxPending; negative disables the bound (the paper's
	// unbounded behaviour, kept for the benchmark's "collapse" arm).
	MaxPending int
	// SendWindow is the coordinator's credit window: its own Send blocks
	// once this many sequenced messages are unacknowledged by the slowest
	// view member (acks ride heartbeats, gossip digests and flush acks).
	// A member's forwarded sends are not windowed; each of its Sends
	// waits for its own delivery instead. Backpressure replaces unbounded
	// receiver queues — replication writes slow to the group's drain rate
	// instead of burying a lagging member. 0 uses DefaultSendWindow;
	// negative disables backpressure.
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
	kData          kind = iota + 1 // coordinator -> members: sequenced data
	kDataFwd                       // member -> coordinator: please sequence
	kJoinReq                       // joiner -> coordinator
	kJoinRsp                       // coordinator -> joiner (view)
	kLeave                         // member -> coordinator
	kView                          // coordinator -> members: install view
	kFlushStart                    // coordinator -> members
	kFlushAck                      // member -> coordinator (delivered digest)
	kHeartbeat                     // bidirectional liveness
	kNakReq                        // retransmit these seqs
	kGossip                        // bimodal digest: the sender's delivered seq
	kGossipRsp                     // bimodal repair
	kStateReq                      // member -> coordinator
	kStateRsp                      // coordinator -> member
	kDiscover                      // broadcast: who coordinates <group>?
	kDiscoverRsp                   // coordinator -> requester
	kMergeAnnounce                 // coordinator broadcast for merge detection
	kMergeView                     // merge leader -> everyone: merged view
)

func (k kind) String() string {
	names := [...]string{"?", "data", "dataFwd", "joinReq", "joinRsp",
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
	// Seq is the global seq of kData; a member's forward number on
	// kDataFwd (its k-th message); the sender's delivered seq on a
	// heartbeat, gossip digest or flush ack; the cut a view installs at.
	Seq     uint64
	From    Address // original sender (survives forwarding/retransmission)
	Payload []byte

	// Membership / flush / merge.
	View    *View
	Addrs   []Address // merge: members of the primary partition
	ViewID  uint64
	Seqs    []uint64  // NAK requests
	Packets []*Packet // gossip repair bundles
	Bool    bool      // generic flag (e.g. state requested)
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
// accessors (View, IsCoordinator) are safe.
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
