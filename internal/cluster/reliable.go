package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mssg/internal/obs"
)

// The reliable layer multiplexes every logical channel over one reserved
// physical channel so a single pump goroutine per node can acknowledge
// data, absorb heartbeats, and reorder/dedup frames no matter which
// logical channels the application is currently receiving on. The
// channel is far above DataCutter's stream range and the query service's
// range; applications must not use it directly.
const rlChannel ChannelID = 0xFFFFFF00

// Reliable frame kinds.
const (
	rkData      byte = 0
	rkAck       byte = 1
	rkHeartbeat byte = 2
)

// rlHeaderLen is {kind byte, channel uint32, seq uint64, crc uint32}.
const rlHeaderLen = 1 + 4 + 8 + 4

// rlPoll is how often a blocked reliable Recv re-checks failure state.
const rlPoll = 20 * time.Millisecond

// ReliableOptions tunes the reliable-delivery layer. The zero value
// selects usable defaults.
type ReliableOptions struct {
	// RetransmitInitial is the first ack-wait interval; it doubles per
	// attempt up to RetransmitMax. Defaults: 15ms and 250ms.
	RetransmitInitial time.Duration
	RetransmitMax     time.Duration
	// SendTimeout bounds one Send's total retransmit budget; when
	// exceeded the send fails with ErrTimeout (or ErrNodeDown if the
	// peer was declared down meanwhile). <= 0 means 10s.
	SendTimeout time.Duration
	// RecvTimeout bounds one Recv; <= 0 means no deadline (a Recv still
	// fails fast with ErrNodeDown once any peer is declared down).
	RecvTimeout time.Duration
	// HeartbeatEvery is the keepalive period; <= 0 means 100ms.
	HeartbeatEvery time.Duration
	// HeartbeatBudget is how long a peer may stay silent (no data, ack,
	// or heartbeat) before it is declared down. <= 0 means
	// 10*HeartbeatEvery.
	HeartbeatBudget time.Duration
	// RejoinGrace governs recovery from a down declaration: once a down
	// peer is heard from again, it must keep answering for this long
	// before it is readmitted (guarding against a flapping link being
	// trusted on its first packet). <= 0 means 2*HeartbeatEvery; set
	// negative to make down declarations sticky (the pre-rejoin
	// behavior, used by tests that assert permanence).
	RejoinGrace time.Duration
}

func (o ReliableOptions) withDefaults() ReliableOptions {
	if o.RetransmitInitial <= 0 {
		o.RetransmitInitial = 15 * time.Millisecond
	}
	if o.RetransmitMax <= 0 {
		o.RetransmitMax = 250 * time.Millisecond
	}
	if o.SendTimeout <= 0 {
		o.SendTimeout = 10 * time.Second
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 100 * time.Millisecond
	}
	if o.HeartbeatBudget <= 0 {
		o.HeartbeatBudget = 10 * o.HeartbeatEvery
	}
	if o.RejoinGrace == 0 {
		o.RejoinGrace = 2 * o.HeartbeatEvery
	}
	return o
}

func rlEncode(kind byte, ch ChannelID, seq uint64, payload []byte) []byte {
	b := make([]byte, rlHeaderLen+len(payload))
	b[0] = kind
	binary.LittleEndian.PutUint32(b[1:5], uint32(ch))
	binary.LittleEndian.PutUint64(b[5:13], seq)
	copy(b[rlHeaderLen:], payload)
	crc := crc32.NewIEEE()
	crc.Write(b[:13])
	crc.Write(b[rlHeaderLen:])
	binary.LittleEndian.PutUint32(b[13:17], crc.Sum32())
	return b
}

func rlDecode(b []byte) (kind byte, ch ChannelID, seq uint64, payload []byte, err error) {
	if len(b) < rlHeaderLen {
		return 0, 0, 0, nil, fmt.Errorf("cluster: short reliable frame (%d bytes)", len(b))
	}
	crc := crc32.NewIEEE()
	crc.Write(b[:13])
	crc.Write(b[rlHeaderLen:])
	if crc.Sum32() != binary.LittleEndian.Uint32(b[13:17]) {
		return 0, 0, 0, nil, fmt.Errorf("cluster: reliable frame checksum mismatch")
	}
	return b[0], ChannelID(binary.LittleEndian.Uint32(b[1:5])),
		binary.LittleEndian.Uint64(b[5:13]), b[rlHeaderLen:], nil
}

// reliableFabric layers MPI-grade delivery — per-channel sequence
// numbers, ack/retransmit with capped exponential backoff, duplicate
// suppression, corruption detection, and heartbeat failure detection —
// on top of any inner Fabric (including a fault-injecting one).
type reliableFabric struct {
	inner     Fabric
	opts      ReliableOptions
	endpoints []*reliableEndpoint
	stop      chan struct{}

	// Per-channel counter groups plus whole-fabric protocol counters,
	// resolved once at construction (see internal/obs package doc).
	met           *fabricMetrics
	mHbSent       *obs.Counter
	mHbRecv       *obs.Counter
	mCorruptDrops *obs.Counter
	mNodeDown     *obs.Counter
	mRejoins      *obs.Counter
	mSendTimeouts *obs.Counter

	mu     sync.Mutex
	closed bool
}

// Unwrap exposes the wrapped fabric so chaos helpers (cluster.Kill) can
// reach a fault-injecting layer underneath.
func (f *reliableFabric) Unwrap() Fabric { return f.inner }

// NewReliable wraps inner with the reliable-delivery protocol. Closing
// the returned fabric closes inner too. The wrapper reserves channel
// 0xFFFFFF00 on the inner fabric for its frames.
func NewReliable(inner Fabric, opts ReliableOptions) Fabric {
	reg := obs.Default()
	f := &reliableFabric{
		inner: inner, opts: opts.withDefaults(), stop: make(chan struct{}),
		met:           newFabricMetrics("cluster.reliable"),
		mHbSent:       reg.Counter("cluster.reliable.heartbeats_sent"),
		mHbRecv:       reg.Counter("cluster.reliable.heartbeats_recv"),
		mCorruptDrops: reg.Counter("cluster.reliable.corrupt_drops"),
		mNodeDown:     reg.Counter("cluster.reliable.node_down_declared"),
		mRejoins:      reg.Counter("cluster.reliable.node_rejoined"),
		mSendTimeouts: reg.Counter("cluster.reliable.send_timeouts"),
	}
	now := time.Now().UnixNano()
	for i := 0; i < inner.Nodes(); i++ {
		ep := &reliableEndpoint{
			fabric:    f,
			inner:     inner.Endpoint(NodeID(i)),
			inboxes:   make(map[ChannelID]*mailbox),
			sendSeq:   make(map[pairKey]uint64),
			recvState: make(map[pairKey]*rlRecvState),
			waiters:   make(map[ackKey]chan struct{}),
			lastHeard: make([]atomic.Int64, inner.Nodes()),
			down:      make([]atomic.Bool, inner.Nodes()),
			reheard:   make([]atomic.Int64, inner.Nodes()),
		}
		for j := range ep.lastHeard {
			ep.lastHeard[j].Store(now)
		}
		f.endpoints = append(f.endpoints, ep)
	}
	for _, ep := range f.endpoints {
		go ep.pump()
		go ep.monitor()
	}
	return f
}

func (f *reliableFabric) Nodes() int { return f.inner.Nodes() }

func (f *reliableFabric) Endpoint(n NodeID) Endpoint {
	if err := Validate(n, f.inner.Nodes()); err != nil {
		panic(err)
	}
	return f.endpoints[n]
}

func (f *reliableFabric) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	close(f.stop)
	f.mu.Unlock()
	err := f.inner.Close()
	for _, ep := range f.endpoints {
		ep.closeInboxes()
	}
	return err
}

func (f *reliableFabric) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// ackKey identifies one outstanding unacknowledged send.
type ackKey struct {
	node NodeID
	ch   ChannelID
	seq  uint64
}

// rlRecvState orders one (sender, channel) stream: next is the sequence
// number owed to the application, stash holds early arrivals.
type rlRecvState struct {
	next  uint64
	stash map[uint64][]byte
}

type reliableEndpoint struct {
	fabric *reliableFabric
	inner  Endpoint

	mu        sync.Mutex
	inboxes   map[ChannelID]*mailbox
	sendSeq   map[pairKey]uint64
	recvState map[pairKey]*rlRecvState
	waiters   map[ackKey]chan struct{}

	lastHeard []atomic.Int64 // unix nanos, indexed by peer
	down      []atomic.Bool
	reheard   []atomic.Int64        // unix nanos a down peer resumed talking, 0 if silent
	termErr   atomic.Pointer[error] // local terminal failure (e.g. own crash)
}

func (e *reliableEndpoint) ID() NodeID { return e.inner.ID() }
func (e *reliableEndpoint) Nodes() int { return e.inner.Nodes() }

func (e *reliableEndpoint) inbox(ch ChannelID) *mailbox {
	e.mu.Lock()
	defer e.mu.Unlock()
	b, ok := e.inboxes[ch]
	if !ok {
		b = newMailbox(0) // always unbounded: the pump must never block
		if e.fabric.isClosed() || e.termErr.Load() != nil {
			b.close()
		}
		e.inboxes[ch] = b
	}
	return b
}

func (e *reliableEndpoint) closeInboxes() {
	e.mu.Lock()
	boxes := make([]*mailbox, 0, len(e.inboxes))
	for _, b := range e.inboxes {
		boxes = append(boxes, b)
	}
	e.mu.Unlock()
	for _, b := range boxes {
		b.close()
	}
}

// fail records a terminal local error and unblocks every receiver.
func (e *reliableEndpoint) fail(err error) {
	e.termErr.CompareAndSwap(nil, &err)
	e.closeInboxes()
}

// translate maps an inbox ErrClosed back to the real cause.
func (e *reliableEndpoint) translate(err error) error {
	if !errors.Is(err, ErrClosed) {
		return err
	}
	if e.fabric.isClosed() {
		return ErrClosed
	}
	if p := e.termErr.Load(); p != nil {
		return *p
	}
	return err
}

func (e *reliableEndpoint) heard(from NodeID) {
	if int(from) < len(e.lastHeard) && from != e.inner.ID() {
		e.lastHeard[from].Store(time.Now().UnixNano())
	}
}

// firstDown returns the lowest peer declared down, or -1.
func (e *reliableEndpoint) firstDown() NodeID {
	for j := range e.down {
		if e.down[j].Load() {
			return NodeID(j)
		}
	}
	return -1
}

// downError names every peer currently declared down (joined
// NodeDownErrors), or nil. Receivers return it instead of just the
// lowest casualty so failover filters that tolerate a known-dead peer
// still see a second, unexpected death in the same error.
func (e *reliableEndpoint) downError() error {
	var errs []error
	for j := range e.down {
		if e.down[j].Load() {
			errs = append(errs, errDown(NodeID(j)))
		}
	}
	return errors.Join(errs...)
}

func errDown(n NodeID) error {
	return &NodeDownError{Node: n, Reason: "exceeded its heartbeat budget"}
}

// pump is the per-node protocol engine: it drains the reserved channel,
// acknowledges and orders data frames, dispatches acks to waiting
// senders, and tracks peer liveness. Corrupt frames (checksum mismatch)
// are dropped; retransmission recovers them.
func (e *reliableEndpoint) pump() {
	for {
		msg, err := e.inner.Recv(rlChannel)
		if err != nil {
			e.fail(err)
			return
		}
		kind, ch, seq, payload, derr := rlDecode(msg.Payload)
		if derr != nil {
			e.fabric.mCorruptDrops.Inc()
			continue
		}
		e.heard(msg.From)
		switch kind {
		case rkHeartbeat:
			e.fabric.mHbRecv.Inc()
		case rkAck:
			e.fabric.met.channel(ch).acks.Inc()
			k := ackKey{msg.From, ch, seq}
			e.mu.Lock()
			if w, ok := e.waiters[k]; ok {
				close(w)
				delete(e.waiters, k)
			}
			e.mu.Unlock()
		case rkData:
			// Ack unconditionally: a duplicate means our previous ack
			// was lost.
			_ = e.inner.Send(msg.From, rlChannel, rlEncode(rkAck, ch, seq, nil))
			k := pairKey{msg.From, ch}
			e.mu.Lock()
			st, ok := e.recvState[k]
			if !ok {
				st = &rlRecvState{next: 1, stash: make(map[uint64][]byte)}
				e.recvState[k] = st
			}
			if seq < st.next {
				e.mu.Unlock()
				e.fabric.met.channel(ch).dups.Inc()
				continue // duplicate of an already-delivered frame
			}
			if _, dup := st.stash[seq]; dup {
				e.mu.Unlock()
				e.fabric.met.channel(ch).dups.Inc()
				continue
			}
			st.stash[seq] = payload
			var deliver []Message
			for {
				p, ok := st.stash[st.next]
				if !ok {
					break
				}
				delete(st.stash, st.next)
				deliver = append(deliver, Message{From: msg.From, Channel: ch, Payload: p})
				st.next++
			}
			e.mu.Unlock()
			if len(deliver) > 0 {
				e.fabric.met.channel(ch).recvs.Add(int64(len(deliver)))
				box := e.inbox(ch)
				for _, m := range deliver {
					_ = box.put(m)
				}
			}
		}
	}
}

// monitor sends heartbeats, declares silent peers down, and — when a
// down peer resumes answering — readmits it after it has stayed audible
// for the rejoin grace window. Heartbeats keep flowing to down peers so
// a recovered node hears us again and its own view can heal too.
func (e *reliableEndpoint) monitor() {
	t := time.NewTicker(e.fabric.opts.HeartbeatEvery)
	defer t.Stop()
	budget := e.fabric.opts.HeartbeatBudget
	grace := e.fabric.opts.RejoinGrace
	for {
		select {
		case <-e.fabric.stop:
			return
		case <-t.C:
		}
		now := time.Now().UnixNano()
		for j := 0; j < e.inner.Nodes(); j++ {
			if NodeID(j) == e.inner.ID() {
				continue
			}
			_ = e.inner.Send(NodeID(j), rlChannel, rlEncode(rkHeartbeat, 0, 0, nil))
			e.fabric.mHbSent.Inc()
			silentFor := now - e.lastHeard[j].Load()
			if !e.down[j].Load() {
				if silentFor > int64(budget) {
					e.reheard[j].Store(0)
					if !e.down[j].Swap(true) {
						e.fabric.mNodeDown.Inc()
						obs.DefaultTracer().Emit("cluster.node_down", map[string]string{
							"observer": strconv.Itoa(int(e.inner.ID())),
							"peer":     strconv.Itoa(j),
						})
					}
				}
				continue
			}
			if grace < 0 {
				continue // rejoin disabled: down is sticky
			}
			// Down peer: a fresh heartbeat within the budget means it is
			// talking again; readmit once it has stayed audible for the
			// whole grace window (one packet is not proof of recovery).
			if silentFor > int64(budget) {
				e.reheard[j].Store(0)
				continue
			}
			since := e.reheard[j].Load()
			if since == 0 {
				e.reheard[j].Store(now)
				continue
			}
			if now-since >= int64(grace) {
				e.reheard[j].Store(0)
				if e.down[j].Swap(false) {
					e.fabric.mRejoins.Inc()
					obs.DefaultTracer().Emit("cluster.node_rejoined", map[string]string{
						"observer": strconv.Itoa(int(e.inner.ID())),
						"peer":     strconv.Itoa(j),
					})
				}
			}
		}
	}
}

func (e *reliableEndpoint) Send(to NodeID, ch ChannelID, payload []byte) error {
	if e.fabric.isClosed() {
		return ErrClosed
	}
	if err := Validate(to, e.inner.Nodes()); err != nil {
		return err
	}
	if ch >= rlChannel {
		return fmt.Errorf("cluster: channel %#x is reserved by the reliable layer", ch)
	}
	if to == e.inner.ID() {
		// Local delivery: a queue operation, no protocol needed.
		return e.inbox(ch).put(Message{From: to, Channel: ch, Payload: payload})
	}
	if e.down[to].Load() {
		return errDown(to)
	}

	k := pairKey{to, ch}
	e.mu.Lock()
	e.sendSeq[k]++
	seq := e.sendSeq[k]
	ak := ackKey{to, ch, seq}
	acked := make(chan struct{})
	e.waiters[ak] = acked
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.waiters, ak)
		e.mu.Unlock()
	}()

	frame := rlEncode(rkData, ch, seq, payload)
	cm := e.fabric.met.channel(ch)
	cm.sends.Inc()
	cm.sendBytes.Add(int64(len(payload)))
	opts := &e.fabric.opts
	deadline := time.Now().Add(opts.SendTimeout)
	backoff := opts.RetransmitInitial
	attempts := 0
	for {
		if attempts++; attempts > 1 {
			cm.retransmits.Inc()
		}
		// The inner fabric owns each sent slice, so every (re)transmit
		// gets its own copy.
		c := make([]byte, len(frame))
		copy(c, frame)
		if err := e.inner.Send(to, rlChannel, c); err != nil {
			if errors.Is(err, ErrClosed) || errors.Is(err, ErrNodeDown) {
				return err
			}
			// Otherwise treat as transient and keep retrying below.
		}
		timer := time.NewTimer(backoff)
		select {
		case <-acked:
			timer.Stop()
			return nil
		case <-e.fabric.stop:
			timer.Stop()
			return ErrClosed
		case <-timer.C:
		}
		if e.down[to].Load() {
			return errDown(to)
		}
		if time.Now().After(deadline) {
			e.fabric.mSendTimeouts.Inc()
			return fmt.Errorf("%w: send %d->%d ch %d seq %d unacked after %v",
				ErrTimeout, e.inner.ID(), to, ch, seq, opts.SendTimeout)
		}
		if backoff *= 2; backoff > opts.RetransmitMax {
			backoff = opts.RetransmitMax
		}
	}
}

func (e *reliableEndpoint) Broadcast(ch ChannelID, payload []byte) error {
	for n := 0; n < e.inner.Nodes(); n++ {
		if NodeID(n) == e.inner.ID() {
			continue
		}
		c := make([]byte, len(payload))
		copy(c, payload)
		if err := e.Send(NodeID(n), ch, c); err != nil {
			return err
		}
	}
	return nil
}

func (e *reliableEndpoint) Recv(ch ChannelID) (Message, error) {
	return e.RecvCtx(context.Background(), ch)
}

// RecvCtx is a poll loop, because it must notice peers going down; a
// cancellation wakes the wait at once.
func (e *reliableEndpoint) RecvCtx(ctx context.Context, ch ChannelID) (Message, error) {
	opts := &e.fabric.opts
	var deadline time.Time
	if opts.RecvTimeout > 0 {
		deadline = time.Now().Add(opts.RecvTimeout)
	}
	box := e.inbox(ch)
	for {
		msg, ok, err := box.getWithin(ctx, rlPoll)
		if err != nil {
			return Message{}, e.translate(err)
		}
		if ok {
			return msg, nil
		}
		if err := ctx.Err(); err != nil {
			return Message{}, err
		}
		if e.firstDown() >= 0 {
			return Message{}, e.downError()
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return Message{}, fmt.Errorf("%w: recv on channel %d after %v",
				ErrTimeout, ch, opts.RecvTimeout)
		}
	}
}

func (e *reliableEndpoint) TryRecv(ch ChannelID) (Message, bool, error) {
	msg, ok, err := e.inbox(ch).tryGet()
	if err != nil {
		return Message{}, false, e.translate(err)
	}
	if ok {
		return msg, true, nil
	}
	if e.firstDown() >= 0 {
		return Message{}, false, e.downError()
	}
	return Message{}, false, nil
}
