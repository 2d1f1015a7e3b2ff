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
	// ErrFlushTimeout reports that Send waited longer than JoinTimeout on
	// a view-change flush, or for the coordinator to sequence it — the
	// group is not settling on a view.
	ErrFlushTimeout = errors.New("jgroups: send blocked by flush too long")
)

var (
	mSendStalls = obs.Default.Counter("gondi_jgroups_send_stalls_total",
		"Sends that blocked on the credit window.")
	mPendingDrops = obs.Default.Counter("gondi_jgroups_pending_dropped_total",
		"Out-of-order packets dropped by the bounded delivery buffer (recovered by repair).")
)

// bimodalStoreMax bounds the store of delivered messages every member
// keeps to answer NAKs and gossip digests.
const bimodalStoreMax = 4096

// Discovery probes: a joiner broadcasts this many, this far apart, before
// it concludes the group is empty and founds it.
const (
	discoverProbes = 3
	discoverWait   = 150 * time.Millisecond
)

// pendingFlush is the coordinator's in-progress view change.
type pendingFlush struct {
	newView  *View
	waiting  map[Address]bool // members whose ack is pending
	digests  map[Address]uint64
	deadline time.Time
}

// sendReq is one local Send: its payload and its caller, waiting on
// reply until answer (once) clears it.
type sendReq struct {
	payload []byte
	reply   chan error
	since   time.Time // when Send was called
	// expiry answers a parked send that waits too long: ErrFlushTimeout
	// or ErrSendWindowFull, by what held it back.
	expiry error
}

func (r *sendReq) answer(err error) {
	if r.reply != nil {
		r.reply <- err
		r.reply = nil
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
	parked    []*sendReq // FIFO: sends held back by a flush, a catch-up or the window
	pull      *statePull

	// The data path: one sequence, numbered by the view coordinator.
	nextSeq   uint64             // the highest seq known sequenced (the coordinator's counter)
	delivered uint64             // highest contiguously delivered seq
	pending   map[uint64]*Packet // out-of-order buffer
	msgStore  map[uint64]*Packet // delivered messages kept for repair
	storeLow  uint64             // the store holds the seqs above this
	ackSeq    map[Address]uint64 // each member's delivered seq, as last heard
	gapSince  time.Time
	// fromCount counts each sender's delivered messages: a member numbers
	// its forwards after its own count, and the coordinator sequences
	// only a sender's next number.
	fromCount map[Address]uint64
	fwd       []*sendReq // member: forwarded sends the stream has not shown yet, in order
	fwdSince  time.Time  // the last forward progress or resend

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
		cfg:       cfg,
		tr:        tr,
		calls:     make(chan func()),
		joined:    make(chan error, 1),
		done:      make(chan struct{}),
		stopped:   make(chan struct{}),
		pending:   map[uint64]*Packet{},
		msgStore:  map[uint64]*Packet{},
		ackSeq:    map[Address]uint64{},
		fromCount: map[Address]uint64{},
		lastSeen:  map[Address]time.Time{},
		rng:       rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(len(tr.Addr())))),
	}
}

// Addr returns this member's address.
func (c *Channel) Addr() Address { return c.tr.Addr() }

// View returns the current view (a copy); nil before Connect succeeds.
func (c *Channel) View() *View { return c.pubView.Load().Clone() }

// IsCoordinator reports whether this member coordinates the group.
func (c *Channel) IsCoordinator() bool { return c.pubView.Load().Coord() == c.Addr() }

// pendingLen reports buffered out-of-order packets — a diagnostic for the
// bounded-buffer tests.
func (c *Channel) pendingLen() int { return int(c.pubPending.Load()) }

// outstanding reports the credit window in use (windowUsed): at the
// coordinator the sequenced messages the slowest member has not
// acknowledged, and 0 on a member. Diagnostic.
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

// Send multicasts payload to the group and returns once this member has
// delivered it through Deliver, at its place in the group's one total
// order. The view coordinator sequences every message: its own at once,
// a member's once the member forwards it.
//
// While a flush quiesces the group, a new coordinator catches up on the
// sequence, or the credit window is exhausted (the slowest member is
// SendWindow messages behind the coordinator), Send waits: that
// backpressure is the anti-collapse mechanism, running the sender at the
// group's drain rate instead of burying a lagging receiver under an
// unbounded queue. After JoinTimeout it gives up with ErrSendWindowFull
// or ErrFlushTimeout; a message already forwarded may still be delivered.
func (c *Channel) Send(payload []byte) error {
	if c.pubView.Load() == nil {
		return ErrNotConnected
	}
	reply := make(chan error, 1)
	req := &sendReq{payload: payload, reply: reply, since: time.Now()}
	if !c.post(func() { c.submit(req) }) {
		return ErrChanClosed
	}
	return <-reply
}

// submit sends req now or parks it, in FIFO order: a flush or a
// coordinator's catch-up holds every send, the credit window the
// coordinator's own.
func (c *Channel) submit(req *sendReq) {
	switch {
	case c.view == nil:
		req.answer(ErrNotConnected)
		return
	case c.held():
		req.expiry = ErrFlushTimeout
	case len(c.parked) > 0 || c.windowFull():
		mSendStalls.Inc()
		req.expiry = ErrSendWindowFull
	default:
		c.emit(req)
		return
	}
	c.parked = append(c.parked, req)
}

// isCoord reports whether this member coordinates its view.
func (c *Channel) isCoord() bool { return c.view.Coord() == c.Addr() }

// held reports that nothing may be sequenced now: a flush is quiescing
// the group, or this member coordinates and has not yet delivered the
// sequence it continues from.
func (c *Channel) held() bool {
	return c.flushing || (c.isCoord() && c.delivered < c.nextSeq)
}

// windowFull reports that the sender credit window is exhausted.
func (c *Channel) windowFull() bool {
	w := c.cfg.SendWindow
	return w > 0 && c.windowUsed() >= uint64(w)
}

// drainParked sends parked sends, oldest first, until the window holds
// the next back. The loop runs it after every event, since acks, views,
// flush ends and repairs are what unblock them; so outside a flush at
// most one send per caller blocked in Send is parked. A member that took
// over as coordinator first puts the forwards the stream has not shown
// it at the head of the line: they are its own sends to sequence now.
func (c *Channel) drainParked() {
	if c.held() {
		return
	}
	if len(c.fwd) > 0 && c.isCoord() {
		c.parked = append(c.fwd, c.parked...)
		c.fwd = nil
	}
	n := 0
	for n < len(c.parked) && !c.windowFull() {
		c.emit(c.parked[n])
		n++
	}
	kept := copy(c.parked, c.parked[n:])
	clear(c.parked[kept:])
	c.parked = c.parked[:kept]
}

// expireParked answers sends waiting longer than JoinTimeout. A parked
// send is dropped. A forwarded one stays queued, since its place in the
// queue is its forward number, and may still be delivered.
func (c *Channel) expireParked() {
	kept := c.parked[:0]
	for _, req := range c.parked {
		if time.Since(req.since) > c.cfg.JoinTimeout {
			req.answer(req.expiry)
		} else {
			kept = append(kept, req)
		}
	}
	clear(c.parked[len(kept):])
	c.parked = kept
	for _, req := range c.fwd {
		if time.Since(req.since) > c.cfg.JoinTimeout {
			req.answer(ErrFlushTimeout)
		}
	}
}

// emit sends one local message: the coordinator sequences it, and a
// member forwards it to the coordinator and answers it when the stream
// shows it (deliverFrom).
func (c *Channel) emit(req *sendReq) {
	if c.isCoord() {
		c.sequence(c.Addr(), req.payload)
		req.answer(nil)
		return
	}
	if len(c.fwd) == 0 {
		c.fwdSince = time.Now()
	}
	c.fwd = append(c.fwd, req)
	c.forward(len(c.fwd) - 1)
}

// forward sends fwd[i] to the coordinator, numbered i+1 past this
// member's delivered messages. The coordinator sequences a forward only
// when its number is one past the member's count there, so a lost
// forward is sent again and none is delivered twice.
func (c *Channel) forward(i int) {
	me := c.Addr()
	_ = c.tr.Send(c.view.Coord(), &Packet{Kind: kDataFwd, Group: c.group, From: me,
		Seq: c.fromCount[me] + uint64(i) + 1, Payload: c.fwd[i].payload})
}

// reforward sends the coordinator every forward again, in order, once
// the stream has shown none of them for RetransmitTimeout. A coordinator
// sends none: drainParked sequences its own.
func (c *Channel) reforward() {
	if len(c.fwd) == 0 || c.isCoord() || time.Since(c.fwdSince) < c.cfg.RetransmitTimeout {
		return
	}
	for i := range c.fwd {
		c.forward(i)
	}
	c.fwdSince = time.Now()
}

// sequence (coordinator) gives a message from `from` the next seq,
// multicasts it and delivers it here.
func (c *Channel) sequence(from Address, payload []byte) {
	c.nextSeq++
	p := &Packet{Kind: kData, Group: c.group, From: from, Seq: c.nextSeq, Payload: payload}
	c.multicast(p)
	c.handleData(p)
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
// messages after delivered, in sequence order: the one place Deliver is
// called. Each delivered message is stored for repair and counted to its
// sender; one of this member's own answers the oldest forwarded Send.
func (c *Channel) deliverFrom() {
	me := c.Addr()
	for {
		next, ok := c.pending[c.delivered+1]
		if !ok {
			return
		}
		delete(c.pending, next.Seq)
		c.delivered++
		c.msgStore[next.Seq] = next
		if c.delivered > bimodalStoreMax {
			c.prune(c.delivered - bimodalStoreMax)
		}
		c.fromCount[next.From]++
		if c.recv.Deliver != nil {
			c.recv.Deliver(next.From, next.Payload)
		}
		if next.From == me && len(c.fwd) > 0 {
			c.fwd[0].answer(nil)
			c.fwd[0] = nil
			c.fwd = c.fwd[1:]
			c.fwdSince = time.Now()
		}
	}
}

// prune drops the stored messages up to seq.
func (c *Channel) prune(seq uint64) {
	for ; c.storeLow < seq; c.storeLow++ {
		delete(c.msgStore, c.storeLow+1)
	}
}

// viewChanged hands the installed view to the application.
func (c *Channel) viewChanged() {
	if c.recv.ViewChange != nil {
		c.recv.ViewChange(c.view.Clone())
	}
}

// handleData buffers p and delivers what it makes contiguous. A full
// buffer sheds its newest packet (LIFO): the gap blocking delivery is
// older, and repair re-fetches whatever is dropped once the gap closes,
// so memory stays bounded through a retransmit storm.
func (c *Channel) handleData(p *Packet) {
	if p.Seq <= c.delivered {
		return // duplicate
	}
	cp := *p
	c.pending[p.Seq] = &cp
	c.deliverFrom()
	if mp := c.cfg.MaxPending; mp > 0 && len(c.pending) > mp {
		dropNewestPending(c.pending)
	}
	c.noteGap()
}

// noteGap starts the repair clock when a gap opens — a message buffered
// past one missing, or a seq known sequenced past the delivered one
// (tail loss) — and stops it once the gap closes.
func (c *Channel) noteGap() {
	switch {
	case len(c.pending) == 0 && c.nextSeq <= c.delivered:
		c.gapSince = time.Time{}
	case c.gapSince.IsZero():
		c.gapSince = time.Now()
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
		for _, req := range append(c.parked, c.fwd...) {
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
	c.pubPending.Store(int64(len(c.pending)))
	c.pubOutstanding.Store(int64(c.windowUsed()))
}

func (c *Channel) handlePacket(p *Packet) {
	if p.Group != c.group {
		return
	}
	c.lastSeen[p.Src] = time.Now()
	connected := c.view != nil
	isCoord := connected && c.isCoord()
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
		// Only the sender's next message, and only while nothing holds
		// sends; any other forward is dropped, and its member sends it
		// again until it sees it delivered.
		if isCoord && !c.held() && p.Seq == c.fromCount[p.From]+1 {
			c.sequence(p.From, p.Payload)
		}
	case kNakReq:
		for _, seq := range p.Seqs {
			if m, ok := c.msgStore[seq]; ok {
				_ = c.tr.Send(p.Src, m)
			}
		}
	case kFlushStart:
		c.flushing = true
		_ = c.tr.Send(p.Src, &Packet{Kind: kFlushAck, Group: c.group, Seq: c.delivered})
	case kFlushAck:
		c.handleFlushAck(p)
	case kView:
		c.installView(p)
	case kHeartbeat:
		c.handleHeartbeat(p)
	case kGossip:
		c.handleGossip(p)
	case kGossipRsp:
		if connected {
			for _, m := range p.Packets {
				c.handleData(m)
			}
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

// handleJoin (coordinator) starts a flush to admit a joiner. A member
// that asks to join again has restarted and counts its messages from one
// again, so the group first sees it leave.
func (c *Channel) handleJoin(joiner Address) {
	if c.view == nil || !c.isCoord() {
		return
	}
	if c.flush != nil || c.view.Contains(joiner) {
		c.joiners = append(c.joiners, joiner)
		if c.flush == nil {
			c.startFlush(c.removeMemberView(joiner))
		}
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
	c.ackSeq[p.Src] = p.Seq
	if c.flush == nil || !c.flush.waiting[p.Src] {
		return
	}
	delete(c.flush.waiting, p.Src)
	c.flush.digests[p.Src] = p.Seq
	if len(c.flush.waiting) == 0 {
		c.finishFlush()
	}
}

// finishFlush installs the new view everywhere, cut at the seq the group
// continues from: the highest any member of the new view delivered. That
// is the coordinator's own seq unless it is catching up, as a member
// that takes over does. On virtual synchrony it first retransmits what
// stragglers miss.
func (c *Channel) finishFlush() {
	f := c.flush
	c.flush = nil
	c.nextSeq = c.delivered
	for _, got := range f.digests {
		c.nextSeq = max(c.nextSeq, got)
	}
	if c.cfg.Mode == ModeVirtualSynchrony {
		for m, got := range f.digests {
			for seq := max(got, c.storeLow) + 1; seq <= c.delivered; seq++ {
				_ = c.tr.Send(m, c.msgStore[seq])
			}
		}
	}
	for _, m := range f.newView.Members {
		if m != c.Addr() {
			_ = c.tr.Send(m, &Packet{Kind: kView, Group: c.group, View: f.newView, Seq: c.nextSeq})
		}
	}
	c.setView(f.newView, c.nextSeq)
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
	if joining {
		// Adopt the coordinator's sequence position: the state transfer,
		// not a replay, carries what came before it.
		c.delivered, c.storeLow = p.Seq, p.Seq
	}
	c.setView(p.View, p.Seq)
	c.viewChanged()
	switch {
	case !joining:
	case c.recv.SetState != nil && !c.isCoord():
		c.startPull(nil)
	default:
		c.finishJoin()
	}
}

// setView installs nv, cut at seq. A message buffered past the cut was
// sequenced by a coordinator that is gone, and is dropped. A member new
// to the view starts its message count anew and is credited with the
// cut, which is where it joins.
func (c *Channel) setView(nv *View, seq uint64) {
	for m := range c.fromCount {
		if !c.view.Contains(m) || !nv.Contains(m) {
			delete(c.fromCount, m)
		}
	}
	for m := range c.ackSeq {
		if !nv.Contains(m) {
			delete(c.ackSeq, m)
		}
	}
	for _, m := range nv.Members {
		if !c.view.Contains(m) {
			c.ackSeq[m] = seq
		}
	}
	for s := range c.pending {
		if s > seq {
			delete(c.pending, s)
		}
	}
	c.view = nv.Clone()
	c.nextSeq = seq
	c.flushing = false
	for _, m := range c.view.Members {
		c.lastSeen[m] = time.Now()
	}
	c.noteGap()
}

// windowUsed is the coordinator's credit window in use: how many
// sequenced messages the slowest member has not acknowledged. It is 0 on
// a member, whose sends each wait for their own delivery.
func (c *Channel) windowUsed() uint64 {
	if !c.isCoord() {
		return 0
	}
	return c.nextSeq - c.ackFloor()
}

// ackFloor is the lowest seq every view member has delivered, as last
// heard, this one's own included.
func (c *Channel) ackFloor() uint64 {
	low := c.delivered
	for _, m := range c.view.Members {
		if m != c.Addr() {
			low = min(low, c.ackSeq[m])
		}
	}
	return low
}

func (c *Channel) tickHeartbeat() {
	if c.view == nil {
		return
	}
	me := c.Addr()
	hb := &Packet{Kind: kHeartbeat, Group: c.group, Seq: c.delivered}
	if c.isCoord() {
		c.multicast(hb)
		// Prune the store below the group-wide ack floor.
		c.prune(c.ackFloor())
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

// handleHeartbeat takes a member's beat as its ack, and the
// coordinator's as the seq sequenced so far: tail loss leaves no gap to
// observe until that is known.
func (c *Channel) handleHeartbeat(p *Packet) {
	if c.view == nil {
		return
	}
	if p.Src != c.view.Coord() {
		c.ackSeq[p.Src] = p.Seq
		return
	}
	c.nextSeq = max(c.nextSeq, p.Seq)
	c.noteGap()
}

// tickGossip (bimodal) sends this member's delivered seq to a random
// peer, which answers with what it misses.
func (c *Channel) tickGossip() {
	if c.view == nil || c.cfg.Mode != ModeBimodal || len(c.view.Members) < 2 {
		return
	}
	peers := make([]Address, 0, len(c.view.Members)-1)
	for _, m := range c.view.Members {
		if m != c.Addr() {
			peers = append(peers, m)
		}
	}
	peer := peers[c.rng.Intn(len(peers))]
	_ = c.tr.Send(peer, &Packet{Kind: kGossip, Group: c.group, Seq: c.delivered})
}

// handleGossip takes the peer's digest as its ack and replies with the
// stored messages it misses.
func (c *Channel) handleGossip(p *Packet) {
	c.ackSeq[p.Src] = p.Seq
	var repair []*Packet
	for seq := max(p.Seq, c.storeLow) + 1; seq <= c.delivered && len(repair) < 256; seq++ {
		repair = append(repair, c.msgStore[seq])
	}
	if len(repair) > 0 {
		_ = c.tr.Send(p.Src, &Packet{Kind: kGossipRsp, Group: c.group, Packets: repair})
	}
}

// tickRetransmit repairs both directions of the data path. A member
// sends its unseen forwards again. On virtual synchrony a member NAKs its
// gaps to the coordinator, and a coordinator catching up NAKs the member
// that acknowledged most.
func (c *Channel) tickRetransmit() {
	if c.view == nil {
		return
	}
	c.reforward()
	if c.cfg.Mode != ModeVirtualSynchrony ||
		c.gapSince.IsZero() || time.Since(c.gapSince) < c.cfg.RetransmitTimeout {
		return
	}
	// Request every missing seq up to the highest sequence we know of:
	// the highest buffered message, or the sequence the coordinator
	// announced (which catches tail loss).
	maxSeq := c.nextSeq
	for s := range c.pending {
		maxSeq = max(maxSeq, s)
	}
	var missing []uint64
	for s := c.delivered + 1; s <= maxSeq && len(missing) < 512; s++ {
		if _, ok := c.pending[s]; !ok {
			missing = append(missing, s)
		}
	}
	to, best := c.view.Coord(), c.delivered
	if to == c.Addr() {
		for m, a := range c.ackSeq {
			if a > best && c.view.Contains(m) {
				to, best = m, a
			}
		}
	}
	if len(missing) > 0 && to != c.Addr() {
		_ = c.tr.Send(to, &Packet{Kind: kNakReq, Group: c.group, Seqs: missing})
	}
}

func (c *Channel) tickMerge() {
	if c.view == nil || !c.isCoord() {
		return
	}
	_ = c.tr.Broadcast(&Packet{Kind: kMergeAnnounce, Group: c.group, View: c.view})
}

// handleMergeAnnounce runs on a coordinator that sees a foreign
// coordinator's announcement. The PRIMARY PARTITION rule picks the
// authoritative side; its coordinator leads the merge.
func (c *Channel) handleMergeAnnounce(p *Packet) {
	if c.view == nil || !c.isCoord() || p.View == nil {
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
	// Reset the data path: in-flight pre-merge traffic is abandoned;
	// non-primary members resynchronize state out of band.
	clear(c.pending)
	clear(c.msgStore)
	clear(c.fromCount)
	c.delivered, c.storeLow = p.Seq, p.Seq
	c.setView(p.View, p.Seq)
	c.viewChanged()
	e := &MergeEvent{Primary: wasPrimary, View: c.view.Clone()}
	if !wasPrimary && c.recv.SetState != nil && !c.isCoord() {
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
