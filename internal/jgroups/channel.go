package jgroups

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"time"

	"gondi/internal/obs"
)

// Channel errors.
var (
	ErrNotConnected = errors.New("jgroups: channel not connected")
	ErrChanClosed   = errors.New("jgroups: channel closed")
	ErrJoinTimeout  = errors.New("jgroups: join timed out")
	// ErrSendWindowFull reports that Send waited on the credit window
	// longer than JoinTimeout — the group is not draining.
	ErrSendWindowFull = errors.New("jgroups: send window full")
	// ErrFlushTimeout reports that Send waited on a view-change flush
	// longer than JoinTimeout — the group is not settling on a view.
	ErrFlushTimeout = errors.New("jgroups: send blocked by flush too long")
)

var (
	mSendStalls = obs.Default.Counter("gondi_jgroups_send_stalls_total",
		"Sends that blocked on the credit window.")
	mPendingDrops = obs.Default.Counter("gondi_jgroups_pending_dropped_total",
		"Out-of-order packets dropped by the bounded delivery buffer (recovered by repair).")
)

// bimodalStoreMax bounds the per-sender gossip repair store.
const bimodalStoreMax = 4096

// Discovery probes: a joiner broadcasts this many, this far apart, before
// it concludes the group is empty and founds it.
const (
	discoverProbes = 3
	discoverWait   = 150 * time.Millisecond
)

// senderState tracks per-sender FIFO delivery (bimodal mode).
type senderState struct {
	delivered uint64
	pending   map[uint64]*Packet
	store     map[uint64]*Packet // delivered messages kept for gossip repair
	storeMin  uint64
}

func newSenderState() *senderState {
	return &senderState{pending: map[uint64]*Packet{}, store: map[uint64]*Packet{}}
}

// pendingFlush is the coordinator's in-progress view change.
type pendingFlush struct {
	newView  *View
	waiting  map[Address]bool // members whose ack is pending
	digests  map[Address]uint64
	deadline time.Time
}

// sendReq is one message waiting to go out: a local Send, whose caller
// waits on reply, or at the coordinator a member's forwarded send, whose
// caller already returned (reply nil).
type sendReq struct {
	from    Address
	payload []byte
	reply   chan error
	// Set when parked: since when, and the answer if it waits too long
	// (ErrFlushTimeout or ErrSendWindowFull, by what held it back).
	since  time.Time
	expiry error
}

func (r *sendReq) answer(err error) {
	if r.reply != nil {
		r.reply <- err
	}
}

// statePull is an outstanding kStateReq. Its answer completes a join
// (merge nil) or comes before a non-primary member's Merge callback.
type statePull struct {
	since time.Time
	merge *MergeEvent
}

// Channel is a group communication endpoint, the JChannel analog.
//
// The channel is one event loop: run owns every protocol field and
// handles packets, timer ticks and posted work (Send, founding) one at a
// time, invoking every Receiver callback itself. Callbacks therefore see
// exactly the protocol's order, and no lock guards protocol state. Other
// goroutines read only the snapshot run publishes after each event.
type Channel struct {
	cfg   Config
	tr    Transport
	group string   // set by Connect before run starts
	recv  Receiver // likewise

	calls   chan func()   // work posted to the loop
	joined  chan error    // Connect's answer, sent once
	done    chan struct{} // closed by Close
	stopped chan struct{} // closed when run returns
	started atomic.Bool
	closed  atomic.Bool

	// The published snapshot.
	pubView        atomic.Pointer[View]
	pubPending     atomic.Int64
	pubOutstanding atomic.Int64

	// Owned by run from here on.
	view      *View   // nil until joined; replaced, never mutated
	joinCoord Address // the coordinator a join request went to
	flushing  bool
	parked    []*sendReq // FIFO: sends held back by a flush or the window
	pull      *statePull

	// Virtual-synchrony data path.
	nextSeq   uint64             // coordinator: next global seq to assign
	delivered uint64             // highest contiguously delivered global seq
	pending   map[uint64]*Packet // out-of-order buffer
	msgStore  map[uint64]*Packet // coordinator: for retransmission
	storeLow  uint64             // below this the store is pruned
	ackSeq    map[Address]uint64 // coordinator: member delivery acks
	coordSeq  uint64             // member: coordinator's delivered seq (from heartbeats)
	gapSince  time.Time

	// Bimodal data path.
	sendSeqB uint64
	senders  map[Address]*senderState
	// peerAckB tracks, per view member, the highest of our own bimodal
	// seqs it has acknowledged delivering (monotonic; learned from
	// heartbeat/gossip/flush digests). The minimum across members is the
	// sender credit window's floor.
	peerAckB map[Address]uint64

	// Membership machinery.
	lastSeen map[Address]time.Time
	flush    *pendingFlush
	joiners  []Address // queued while a flush is in progress

	rng *rand.Rand
}

// NewChannel builds a channel over the given transport.
func NewChannel(tr Transport, cfg Config) *Channel {
	if cfg.MaxPending == 0 {
		cfg.MaxPending = DefaultMaxPending
	}
	if cfg.SendWindow == 0 {
		cfg.SendWindow = DefaultSendWindow
	}
	return &Channel{
		cfg:      cfg,
		tr:       tr,
		calls:    make(chan func()),
		joined:   make(chan error, 1),
		done:     make(chan struct{}),
		stopped:  make(chan struct{}),
		pending:  map[uint64]*Packet{},
		msgStore: map[uint64]*Packet{},
		ackSeq:   map[Address]uint64{},
		senders:  map[Address]*senderState{},
		peerAckB: map[Address]uint64{},
		lastSeen: map[Address]time.Time{},
		rng:      rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(len(tr.Addr())))),
	}
}

// Addr returns this member's address.
func (c *Channel) Addr() Address { return c.tr.Addr() }

// View returns the current view (a copy); nil before Connect succeeds.
func (c *Channel) View() *View { return c.pubView.Load().Clone() }

// IsCoordinator reports whether this member coordinates the group.
func (c *Channel) IsCoordinator() bool { return c.pubView.Load().Coord() == c.Addr() }

// pendingLen reports buffered out-of-order packets across all senders —
// a diagnostic for the bounded-buffer tests.
func (c *Channel) pendingLen() int { return int(c.pubPending.Load()) }

// outstanding reports the credit window in use (windowUsed): in bimodal
// mode this member's messages its slowest peer has not acknowledged; in
// virtual synchrony the sequenced messages the slowest member has not
// acknowledged at the coordinator, and 0 on a member. Diagnostic.
func (c *Channel) outstanding() int { return int(c.pubOutstanding.Load()) }

// Connect discovers the group coordinator (or founds the group), joins,
// and — when r.SetState is set and another member already coordinates —
// pulls the application state.
func (c *Channel) Connect(group string, r Receiver) error {
	if c.closed.Load() {
		return ErrChanClosed
	}
	if !c.started.CompareAndSwap(false, true) {
		return errors.New("jgroups: Connect on a used channel")
	}
	c.group, c.recv = group, r
	go c.run()

	// The loop answers the first kDiscoverRsp with a join request; when
	// no coordinator answers any probe, this member founds the group.
	deadline := time.After(c.cfg.JoinTimeout)
	await := func(probe <-chan time.Time) (answered bool, err error) {
		select {
		case err := <-c.joined:
			return true, err
		case <-probe:
			return false, nil
		case <-deadline:
			return true, ErrJoinTimeout
		case <-c.stopped:
			return true, ErrChanClosed
		}
	}
	for i := 0; i < discoverProbes; i++ {
		_ = c.tr.Broadcast(&Packet{Kind: kDiscover, Group: group})
		if answered, err := await(time.After(discoverWait)); answered {
			return err
		}
	}
	if !c.post(c.found) {
		return ErrChanClosed
	}
	_, err := await(nil)
	return err
}

// found makes this member the founder of a one-member group, unless a
// coordinator answered discovery meanwhile.
func (c *Channel) found() {
	if c.view != nil || c.joinCoord != "" {
		return
	}
	c.view = &View{ID: 1, Members: []Address{c.Addr()}}
	c.viewChanged()
	c.finishJoin()
}

// finishJoin publishes the joined view, then releases Connect.
func (c *Channel) finishJoin() {
	c.publish()
	c.joined <- nil
}

// post hands f to the loop; false once the loop has stopped.
func (c *Channel) post(f func()) bool {
	select {
	case c.calls <- f:
		return true
	case <-c.stopped:
		return false
	}
}

// Send multicasts payload to the group; the sender receives its own
// message through Deliver as well. In virtual-synchrony mode messages are
// totally ordered; in bimodal mode they are FIFO per sender.
//
// A bimodal send, or a virtual-synchrony send from the coordinator,
// returns once the message was delivered locally; a member's
// virtual-synchrony send returns once it was forwarded to the
// coordinator. While a flush quiesces the group or the credit window is
// exhausted (the slowest member is SendWindow of our own messages
// behind), Send waits: that backpressure is the anti-collapse mechanism,
// running the sender at the group's drain rate instead of burying a
// lagging receiver under an unbounded queue. After JoinTimeout it gives
// up with ErrSendWindowFull or ErrFlushTimeout.
func (c *Channel) Send(payload []byte) error {
	if c.pubView.Load() == nil {
		return ErrNotConnected
	}
	req := &sendReq{from: c.Addr(), payload: payload, reply: make(chan error, 1)}
	if !c.post(func() { c.submit(req) }) {
		return ErrChanClosed
	}
	return <-req.reply
}

// submit sends req now or parks it. A flush holds back every send. The
// credit window holds back only local ones, in FIFO order: a forwarded
// send was already answered at its member, so parking it would queue
// without backpressure (members' sends are not windowed, ROADMAP 19).
func (c *Channel) submit(req *sendReq) {
	switch {
	case c.view == nil:
		req.answer(ErrNotConnected)
		return
	case c.flushing:
		req.expiry = ErrFlushTimeout
	case req.reply != nil && (len(c.parked) > 0 || c.windowFull()):
		mSendStalls.Inc()
		req.expiry = ErrSendWindowFull
	default:
		c.emit(req)
		return
	}
	req.since = time.Now()
	c.parked = append(c.parked, req)
}

// windowFull reports that the sender credit window is exhausted.
func (c *Channel) windowFull() bool {
	w := c.cfg.SendWindow
	return w > 0 && c.windowUsed() >= uint64(w)
}

// drainParked sends, once no flush is running, every parked forwarded
// send and the local ones, oldest first, until the window holds the next
// back. The loop runs it after every event, since acks, views and flush
// ends are what unblock them; so outside a flush only local sends stay
// parked, at most one per caller blocked in Send.
func (c *Channel) drainParked() {
	if c.flushing {
		return
	}
	kept := c.parked[:0]
	for _, req := range c.parked {
		if req.reply == nil || (len(kept) == 0 && !c.windowFull()) {
			c.emit(req)
		} else {
			kept = append(kept, req)
		}
	}
	clear(c.parked[len(kept):])
	c.parked = kept
}

// expireParked answers local sends parked longer than JoinTimeout. A
// forwarded send has no caller here to answer — its sender was already
// told it went out — so it waits for the flush to end instead.
func (c *Channel) expireParked() {
	kept := c.parked[:0]
	for _, req := range c.parked {
		if req.reply != nil && time.Since(req.since) > c.cfg.JoinTimeout {
			req.answer(req.expiry)
		} else {
			kept = append(kept, req)
		}
	}
	clear(c.parked[len(kept):])
	c.parked = kept
}

// emit sends one message. The coordinator sequences its own sends and
// forwarded ones with the same code; a member forwards to it.
func (c *Channel) emit(req *sendReq) {
	var err error
	switch {
	case c.cfg.Mode == ModeBimodal:
		c.sendSeqB++
		p := &Packet{Kind: kDataBimodal, Group: c.group, From: c.Addr(), Seq: c.sendSeqB, Payload: req.payload}
		c.multicast(p)
		c.handleBimodalData(p)
	case c.view.Coord() == c.Addr():
		c.nextSeq++
		p := &Packet{Kind: kData, Group: c.group, From: req.from, Seq: c.nextSeq, Payload: req.payload}
		c.msgStore[p.Seq] = p
		c.multicast(p)
		c.handleData(p)
	default:
		err = c.tr.Send(c.view.Coord(), &Packet{Kind: kDataFwd, Group: c.group, From: req.from, Payload: req.payload})
	}
	req.answer(err)
}

// multicast unicasts p to every other view member.
func (c *Channel) multicast(p *Packet) {
	for _, m := range c.view.Members {
		if m != c.Addr() {
			_ = c.tr.Send(m, p)
		}
	}
}

// deliverFrom hands the application the contiguous run of pending
// messages after *delivered, in sequence order: the one place Deliver is
// called, for both data paths. A non-nil store keeps each delivered
// message for gossip repair (bimodal).
func (c *Channel) deliverFrom(pending map[uint64]*Packet, delivered *uint64, store map[uint64]*Packet) {
	for {
		next, ok := pending[*delivered+1]
		if !ok {
			return
		}
		delete(pending, *delivered+1)
		*delivered++
		if store != nil {
			store[next.Seq] = next
		}
		if c.recv.Deliver != nil {
			c.recv.Deliver(next.From, next.Payload)
		}
	}
}

// viewChanged hands the installed view to the application.
func (c *Channel) viewChanged() {
	if c.recv.ViewChange != nil {
		c.recv.ViewChange(c.view.Clone())
	}
}

// handleData performs in-order global-seq delivery (VS mode).
func (c *Channel) handleData(p *Packet) {
	if p.Seq <= c.delivered {
		return // duplicate
	}
	cp := *p
	c.pending[p.Seq] = &cp
	c.deliverFrom(c.pending, &c.delivered, nil)
	if mp := c.cfg.MaxPending; mp > 0 && len(c.pending) > mp {
		dropNewestPending(c.pending)
	}
	if len(c.pending) > 0 {
		if c.gapSince.IsZero() {
			c.gapSince = time.Now()
		}
	} else {
		c.gapSince = time.Time{}
	}
}

// handleBimodalData performs per-sender FIFO delivery and stores
// messages for gossip repair.
func (c *Channel) handleBimodalData(p *Packet) {
	ss := c.senders[p.From]
	if ss == nil {
		ss = newSenderState()
		c.senders[p.From] = ss
	}
	if p.Seq <= ss.delivered {
		return
	}
	if _, dup := ss.pending[p.Seq]; dup {
		return
	}
	cp := *p
	ss.pending[p.Seq] = &cp
	c.deliverFrom(ss.pending, &ss.delivered, ss.store)
	// Bound the out-of-order buffer: shed the newest buffered packet —
	// the gap blocking delivery is older, and gossip repair re-fetches
	// whatever is dropped once the gap closes. Memory stays bounded
	// through a retransmit storm.
	if mp := c.cfg.MaxPending; mp > 0 && len(ss.pending) > mp {
		dropNewestPending(ss.pending)
	}
	// Prune the repair store.
	for len(ss.store) > bimodalStoreMax {
		ss.storeMin++
		delete(ss.store, ss.storeMin)
	}
}

// dropNewestPending removes the highest-seq packet from a full pending
// buffer (LIFO shed: newest work is cheapest to lose — retransmission
// recovers it after the older gap heals).
func dropNewestPending(pending map[uint64]*Packet) {
	var maxSeq uint64
	for s := range pending {
		if s > maxSeq {
			maxSeq = s
		}
	}
	delete(pending, maxSeq)
	mPendingDrops.Inc()
}

// run is the protocol loop: the one goroutine that touches protocol
// state and calls the application.
func (c *Channel) run() {
	defer func() {
		for _, req := range c.parked {
			req.answer(ErrChanClosed)
		}
		close(c.stopped)
	}()
	heartbeat := time.NewTicker(c.cfg.HeartbeatInterval)
	defer heartbeat.Stop()
	gossip := time.NewTicker(c.cfg.GossipInterval)
	defer gossip.Stop()
	merge := time.NewTicker(c.cfg.MergeInterval)
	defer merge.Stop()
	retrans := time.NewTicker(c.cfg.RetransmitTimeout)
	defer retrans.Stop()

	for {
		select {
		case <-c.done:
			return
		case p, ok := <-c.tr.Recv():
			if !ok {
				return
			}
			c.handlePacket(p)
		case f := <-c.calls:
			f()
		case <-heartbeat.C:
			c.tickHeartbeat()
		case <-gossip.C:
			c.tickGossip()
		case <-merge.C:
			c.tickMerge()
		case <-retrans.C:
			c.tickRetransmit()
		}
		c.drainParked()
		c.publish()
	}
}

// publish stores the snapshot the accessors read.
func (c *Channel) publish() {
	c.pubView.Store(c.view)
	n := len(c.pending)
	for _, ss := range c.senders {
		n += len(ss.pending)
	}
	c.pubPending.Store(int64(n))
	c.pubOutstanding.Store(int64(c.windowUsed()))
}

func (c *Channel) handlePacket(p *Packet) {
	if p.Group != c.group {
		return
	}
	c.lastSeen[p.Src] = time.Now()
	connected := c.view != nil
	isCoord := connected && c.view.Coord() == c.Addr()
	switch p.Kind {
	case kDiscover:
		if isCoord && p.Src != c.Addr() {
			_ = c.tr.Send(p.Src, &Packet{Kind: kDiscoverRsp, Group: c.group})
		}
	case kDiscoverRsp:
		if !connected && c.joinCoord == "" {
			c.joinCoord = p.Src
			_ = c.tr.Send(p.Src, &Packet{Kind: kJoinReq, Group: c.group})
		}
	case kJoinReq:
		c.handleJoin(p.Src)
	case kLeave:
		if isCoord && c.view.Contains(p.Src) {
			c.startFlush(c.removeMemberView(p.Src))
		}
	case kData:
		if connected {
			c.handleData(p)
		}
	case kDataFwd:
		// Parked while a flush runs: the member's Send already
		// returned, so dropping it would lose the message.
		if isCoord {
			c.submit(&sendReq{from: p.From, payload: p.Payload})
		}
	case kDataBimodal:
		if connected {
			c.handleBimodalData(p)
		}
	case kNakReq:
		for _, seq := range p.Seqs {
			if m, ok := c.msgStore[seq]; ok {
				_ = c.tr.Send(p.Src, m)
			}
		}
	case kFlushStart:
		c.flushing = true
		_ = c.tr.Send(p.Src, &Packet{Kind: kFlushAck, Group: c.group, Seq: c.delivered, Digest: c.bimodalDigest()})
	case kFlushAck:
		c.handleFlushAck(p)
	case kView:
		c.installView(p)
	case kHeartbeat:
		c.handleHeartbeat(p)
	case kGossip:
		c.handleGossip(p)
	case kGossipRsp:
		for _, m := range p.Packets {
			c.handleBimodalData(m)
		}
	case kStateReq:
		if c.recv.GetState != nil {
			_ = c.tr.Send(p.Src, &Packet{Kind: kStateRsp, Group: c.group, Payload: c.recv.GetState()})
		}
	case kStateRsp:
		c.endPull(p.Payload, true)
	case kMergeAnnounce:
		c.handleMergeAnnounce(p)
	case kMergeView:
		c.installMergeView(p)
	}
}

// startPull asks the coordinator for the application state. A pull
// still outstanding is given up first, so its join or Merge still ends.
func (c *Channel) startPull(merge *MergeEvent) {
	c.endPull(nil, false)
	c.pull = &statePull{since: time.Now(), merge: merge}
	_ = c.tr.Send(c.view.Coord(), &Packet{Kind: kStateReq, Group: c.group})
}

// endPull completes the outstanding state pull: SetState with the answer
// (none when it timed out, which keeps the member's state), then the
// join or the Merge callback the pull was for.
func (c *Channel) endPull(state []byte, answered bool) {
	pull := c.pull
	if pull == nil {
		return
	}
	c.pull = nil
	if answered {
		c.recv.SetState(state)
	}
	if pull.merge == nil {
		c.finishJoin()
	} else if c.recv.Merge != nil {
		c.recv.Merge(*pull.merge)
	}
}

// handleJoin (coordinator) starts a flush to admit a joiner.
func (c *Channel) handleJoin(joiner Address) {
	if c.view == nil || c.view.Coord() != c.Addr() {
		return
	}
	if c.view.Contains(joiner) {
		// Re-join after restart: just resend the current view.
		_ = c.tr.Send(joiner, &Packet{Kind: kView, Group: c.group, View: c.view, Seq: c.nextSeq})
		return
	}
	if c.flush != nil {
		c.joiners = append(c.joiners, joiner)
		return
	}
	nv := c.view.Clone()
	nv.ID++
	nv.Members = append(nv.Members, joiner)
	c.startFlush(nv)
}

func (c *Channel) removeMemberView(gone ...Address) *View {
	nv := &View{ID: c.view.ID + 1}
	for _, m := range c.view.Members {
		dead := false
		for _, g := range gone {
			if m == g {
				dead = true
			}
		}
		if !dead {
			nv.Members = append(nv.Members, m)
		}
	}
	return nv
}

// startFlush (coordinator) quiesces the group before installing nv.
func (c *Channel) startFlush(nv *View) {
	c.flushing = true
	waiting := map[Address]bool{}
	for _, m := range c.view.Members {
		if m != c.Addr() && nv.Contains(m) {
			waiting[m] = true
			_ = c.tr.Send(m, &Packet{Kind: kFlushStart, Group: c.group, ViewID: nv.ID})
		}
	}
	c.flush = &pendingFlush{
		newView:  nv,
		waiting:  waiting,
		digests:  map[Address]uint64{},
		deadline: time.Now().Add(c.cfg.SuspectAfter),
	}
	if len(waiting) == 0 {
		c.finishFlush()
	}
}

func (c *Channel) handleFlushAck(p *Packet) {
	c.recordPeerAck(p.Src, p.Digest)
	if c.flush == nil || !c.flush.waiting[p.Src] {
		return
	}
	delete(c.flush.waiting, p.Src)
	c.flush.digests[p.Src] = p.Seq
	if len(c.flush.waiting) == 0 {
		c.finishFlush()
	}
}

// finishFlush (coordinator) retransmits what stragglers miss, then
// installs the new view everywhere.
func (c *Channel) finishFlush() {
	f := c.flush
	c.flush = nil
	if c.cfg.Mode == ModeVirtualSynchrony {
		for m, got := range f.digests {
			for seq := got + 1; seq <= c.nextSeq; seq++ {
				if msg, ok := c.msgStore[seq]; ok {
					_ = c.tr.Send(m, msg)
				}
			}
		}
	}
	for _, m := range f.newView.Members {
		if m != c.Addr() {
			_ = c.tr.Send(m, &Packet{Kind: kView, Group: c.group, View: f.newView, Seq: c.nextSeq})
		}
	}
	c.view = f.newView.Clone()
	c.syncPeerAck()
	c.flushing = false
	for _, m := range c.view.Members {
		c.lastSeen[m] = time.Now()
	}
	c.viewChanged()
	// Queued joiners start the next flush.
	if len(c.joiners) > 0 {
		next := c.joiners[0]
		c.joiners = c.joiners[1:]
		c.handleJoin(next)
	}
}

// installView (member) applies a kView from the coordinator; the first
// one completes a join.
func (c *Channel) installView(p *Packet) {
	if p.View == nil || !p.View.Contains(c.Addr()) {
		return // excluded (false suspicion); we'll re-merge later
	}
	joining := c.view == nil
	if !joining && p.View.ID <= c.view.ID {
		return // stale
	}
	c.view = p.View.Clone()
	c.syncPeerAck()
	c.flushing = false
	for _, m := range c.view.Members {
		c.lastSeen[m] = time.Now()
	}
	if joining {
		// Adopt the coordinator's sequence position.
		c.delivered = p.Seq
		c.nextSeq = p.Seq
	}
	c.viewChanged()
	switch {
	case !joining:
	case c.recv.SetState != nil && c.view.Coord() != c.Addr():
		c.startPull(nil)
	default:
		c.finishJoin()
	}
}

func (c *Channel) bimodalDigest() map[Address]uint64 {
	d := map[Address]uint64{}
	for a, ss := range c.senders {
		d[a] = ss.delivered
	}
	if c.cfg.Mode == ModeBimodal {
		d[c.Addr()] = c.sendSeqB
	}
	return d
}

// recordPeerAck folds a peer's digest of OUR messages into the
// credit-window floor. Acks are monotonic: a joiner's backfill digest
// never retracts credit already granted.
func (c *Channel) recordPeerAck(src Address, digest map[Address]uint64) {
	if c.cfg.Mode != ModeBimodal || digest == nil || src == c.Addr() {
		return
	}
	if n := digest[c.Addr()]; n > c.peerAckB[src] {
		c.peerAckB[src] = n
	}
}

// syncPeerAck reconciles the ack table with a newly installed view:
// departed members stop holding the window down, and joiners are
// granted credit from the current send position (they backfill history
// via gossip, which must not stall new sends).
func (c *Channel) syncPeerAck() {
	if c.cfg.Mode != ModeBimodal {
		return
	}
	alive := map[Address]bool{}
	for _, m := range c.view.Members {
		alive[m] = true
	}
	for a := range c.peerAckB {
		if !alive[a] {
			delete(c.peerAckB, a)
		}
	}
	for _, m := range c.view.Members {
		if m != c.Addr() {
			if _, ok := c.peerAckB[m]; !ok {
				c.peerAckB[m] = c.sendSeqB
			}
		}
	}
}

// windowUsed is how many of this member's own messages the slowest view
// member has not acknowledged: the sender credit window in use. In
// virtual synchrony only the coordinator (the sequencer, and the only
// member with the group ack floor) counts, and only its own sends wait
// on it; member sends are forwarded unwindowed.
func (c *Channel) windowUsed() uint64 {
	if c.view == nil || len(c.view.Members) < 2 {
		return 0
	}
	me := c.Addr()
	if c.cfg.Mode == ModeBimodal {
		low := c.sendSeqB
		for _, m := range c.view.Members {
			if m != me && c.peerAckB[m] < low {
				low = c.peerAckB[m]
			}
		}
		return c.sendSeqB - low
	}
	if c.view.Coord() != me {
		return 0
	}
	low := c.nextSeq
	for _, m := range c.view.Members {
		if m == me {
			continue
		}
		if a, ok := c.ackSeq[m]; !ok {
			low = 0
		} else if a < low {
			low = a
		}
	}
	return c.nextSeq - low
}

func (c *Channel) tickHeartbeat() {
	if c.view == nil {
		return
	}
	me := c.Addr()
	hb := &Packet{Kind: kHeartbeat, Group: c.group, Seq: c.delivered}
	if c.cfg.Mode == ModeBimodal {
		// Heartbeats double as delivery acks: the digest advances every
		// peer's credit-window floor once per beat, independent of the
		// (random-peer) gossip schedule.
		hb.Digest = c.bimodalDigest()
	}
	if c.view.Coord() == me {
		c.multicast(hb)
		// Prune the retransmission store below the group-wide ack floor.
		if len(c.view.Members) > 1 {
			low := c.delivered
			for _, m := range c.view.Members {
				if m == me {
					continue
				}
				if a, ok := c.ackSeq[m]; !ok {
					low = 0
					break
				} else if a < low {
					low = a
				}
			}
			for seq := c.storeLow + 1; seq <= low; seq++ {
				delete(c.msgStore, seq)
			}
			if low > c.storeLow {
				c.storeLow = low
			}
		} else {
			c.msgStore = map[uint64]*Packet{}
			c.storeLow = c.nextSeq
		}
		// Failure detection of members.
		var gone []Address
		for _, m := range c.view.Members {
			if m == me {
				continue
			}
			if seen, ok := c.lastSeen[m]; ok && time.Since(seen) > c.cfg.SuspectAfter {
				gone = append(gone, m)
			}
		}
		if len(gone) > 0 && c.flush == nil {
			c.startFlush(c.removeMemberView(gone...))
		}
	} else {
		_ = c.tr.Send(c.view.Coord(), hb)
		// Coordinator failure: the senior surviving member takes over.
		coord := c.view.Coord()
		if seen, ok := c.lastSeen[coord]; ok && time.Since(seen) > c.cfg.SuspectAfter {
			if c.flush == nil && c.seniorSurvivor() == me {
				c.startFlush(c.removeMemberView(coord))
			}
		}
	}
	// Flush deadline: drop unresponsive members from the pending view.
	// This must run on whichever member initiated the flush — a deposed
	// coordinator's successor is not the coordinator of the current view.
	if c.flush != nil && time.Now().After(c.flush.deadline) {
		for m := range c.flush.waiting {
			c.flush.newView.Members = removeAddr(c.flush.newView.Members, m)
			delete(c.flush.waiting, m)
		}
		if len(c.flush.waiting) == 0 {
			c.finishFlush()
		}
	}
	// Sends and a state pull give up after JoinTimeout, checked once a
	// beat so they fail even if no ack or view event arrives.
	c.expireParked()
	if c.pull != nil && time.Since(c.pull.since) > c.cfg.JoinTimeout {
		c.endPull(nil, false)
	}
}

// seniorSurvivor returns the first view member not currently suspected.
func (c *Channel) seniorSurvivor() Address {
	for _, m := range c.view.Members {
		if m == c.Addr() {
			return m
		}
		if seen, ok := c.lastSeen[m]; !ok || time.Since(seen) <= c.cfg.SuspectAfter {
			return m
		}
	}
	return ""
}

func removeAddr(in []Address, rm Address) []Address {
	out := in[:0]
	for _, a := range in {
		if a != rm {
			out = append(out, a)
		}
	}
	return out
}

func (c *Channel) handleHeartbeat(p *Packet) {
	if c.view == nil {
		return
	}
	c.recordPeerAck(p.Src, p.Digest)
	if c.view.Coord() == c.Addr() {
		c.ackSeq[p.Src] = p.Seq
		return
	}
	if p.Src == c.view.Coord() {
		// The coordinator has sequenced messages we may have lost
		// entirely (tail loss leaves no gap to observe); remember its
		// position so tickRetransmit can NAK up to it.
		if p.Seq > c.coordSeq {
			c.coordSeq = p.Seq
		}
		if c.coordSeq > c.delivered && c.gapSince.IsZero() {
			c.gapSince = time.Now()
		}
	}
}

func (c *Channel) tickGossip() {
	if c.view == nil || c.cfg.Mode != ModeBimodal || len(c.view.Members) < 2 {
		return
	}
	// Pick a random peer.
	peers := make([]Address, 0, len(c.view.Members)-1)
	for _, m := range c.view.Members {
		if m != c.Addr() {
			peers = append(peers, m)
		}
	}
	peer := peers[c.rng.Intn(len(peers))]
	_ = c.tr.Send(peer, &Packet{Kind: kGossip, Group: c.group, Digest: c.bimodalDigest()})
}

// handleGossip replies with the messages the peer's digest misses.
func (c *Channel) handleGossip(p *Packet) {
	if c.cfg.Mode != ModeBimodal {
		return
	}
	c.recordPeerAck(p.Src, p.Digest)
	var repair []*Packet
	for sender, ss := range c.senders {
		have := ss.delivered
		theirs := p.Digest[sender]
		for seq := theirs + 1; seq <= have && len(repair) < 256; seq++ {
			if m, ok := ss.store[seq]; ok {
				repair = append(repair, m)
			}
		}
	}
	if len(repair) > 0 {
		_ = c.tr.Send(p.Src, &Packet{Kind: kGossipRsp, Group: c.group, Packets: repair})
	}
}

func (c *Channel) tickRetransmit() {
	if c.view == nil || c.cfg.Mode != ModeVirtualSynchrony ||
		c.gapSince.IsZero() || time.Since(c.gapSince) < c.cfg.RetransmitTimeout {
		return
	}
	// Request every missing seq up to the highest sequence we know of:
	// the highest buffered message, or the coordinator's heartbeat
	// position (which catches tail loss).
	maxSeq := c.coordSeq
	for s := range c.pending {
		if s > maxSeq {
			maxSeq = s
		}
	}
	var missing []uint64
	for s := c.delivered + 1; s <= maxSeq && len(missing) < 512; s++ {
		if _, ok := c.pending[s]; !ok {
			missing = append(missing, s)
		}
	}
	if coord := c.view.Coord(); len(missing) > 0 && coord != c.Addr() {
		_ = c.tr.Send(coord, &Packet{Kind: kNakReq, Group: c.group, Seqs: missing})
	}
}

func (c *Channel) tickMerge() {
	if c.view == nil || c.view.Coord() != c.Addr() {
		return
	}
	_ = c.tr.Broadcast(&Packet{Kind: kMergeAnnounce, Group: c.group, View: c.view})
}

// handleMergeAnnounce runs on a coordinator that sees a foreign
// coordinator's announcement. The PRIMARY PARTITION rule picks the
// authoritative side; its coordinator leads the merge.
func (c *Channel) handleMergeAnnounce(p *Packet) {
	if c.view == nil || c.view.Coord() != c.Addr() || p.View == nil {
		return
	}
	if p.Src == c.Addr() || c.view.Contains(p.Src) {
		return // our own announcement or a member we already have
	}
	mine, theirs := c.view, p.View
	if !primaryOf(mine, theirs, c.Addr(), p.Src) {
		return // the other coordinator leads
	}
	// Build the merged view: primary members keep seniority.
	nv := &View{ID: max(mine.ID, theirs.ID) + 1}
	nv.Members = append(nv.Members, mine.Members...)
	for _, m := range theirs.Members {
		if !nv.Contains(m) {
			nv.Members = append(nv.Members, m)
		}
	}
	primary := append([]Address(nil), mine.Members...)
	for _, m := range nv.Members {
		pkt := &Packet{Kind: kMergeView, Group: c.group, View: nv, Addrs: primary, Seq: c.nextSeq}
		if m == c.Addr() {
			c.installMergeView(pkt) // our own copy cannot loop back
			continue
		}
		_ = c.tr.Send(m, pkt)
	}
}

// primaryOf decides whether (mine, me) is the primary partition against
// (theirs, other): larger membership wins; ties go to the smaller
// coordinator address.
func primaryOf(mine, theirs *View, me, other Address) bool {
	if len(mine.Members) != len(theirs.Members) {
		return len(mine.Members) > len(theirs.Members)
	}
	return me < other
}

// installMergeView installs a merged view and resets the data path. A
// member of the non-primary partition pulls the authoritative state
// before its Merge callback.
func (c *Channel) installMergeView(p *Packet) {
	if c.view == nil || p.View == nil || !p.View.Contains(c.Addr()) || p.View.ID <= c.view.ID {
		return
	}
	wasPrimary := false
	for _, a := range p.Addrs {
		if a == c.Addr() {
			wasPrimary = true
		}
	}
	c.view = p.View.Clone()
	c.flushing = false
	for _, m := range c.view.Members {
		c.lastSeen[m] = time.Now()
	}
	// Reset both data paths: in-flight pre-merge traffic is abandoned;
	// non-primary members resynchronize state out of band.
	c.pending = map[uint64]*Packet{}
	c.msgStore = map[uint64]*Packet{}
	c.storeLow = 0
	c.delivered = p.Seq
	c.nextSeq = p.Seq
	c.coordSeq = p.Seq
	c.gapSince = time.Time{}
	c.senders = map[Address]*senderState{}
	c.sendSeqB = 0
	// The bimodal seq space restarted: stale acks would exceed the new
	// send position, so the credit table restarts with it.
	c.peerAckB = map[Address]uint64{}
	c.syncPeerAck()
	c.viewChanged()
	e := &MergeEvent{Primary: wasPrimary, View: c.view.Clone()}
	if !wasPrimary && c.recv.SetState != nil && c.view.Coord() != c.Addr() {
		c.startPull(e)
	} else if c.recv.Merge != nil {
		c.recv.Merge(*e)
	}
}

// Close leaves the group and releases the transport. It must not be
// called from a Receiver callback: it waits for the loop that runs them.
func (c *Channel) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	if v := c.pubView.Load(); v != nil && v.Coord() != c.Addr() {
		_ = c.tr.Send(v.Coord(), &Packet{Kind: kLeave, Group: c.group})
	}
	close(c.done)
	err := c.tr.Close()
	if c.started.Load() {
		<-c.stopped
	}
	return err
}
