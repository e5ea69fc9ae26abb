package cluster

import (
	"context"
	"sync"
	"time"
)

// inprocFabric connects N in-process nodes with per-(node, channel)
// mailboxes. It is the default fabric for experiments: message counts,
// sizes and ordering match a real deployment while everything runs in one
// process.
type inprocFabric struct {
	size      int
	endpoints []*inprocEndpoint

	mu     sync.Mutex
	closed bool
}

// NewInProc creates an in-process fabric with `size` nodes. By default
// (buffer <= 0) sends never block — the paper's algorithms assume
// non-blocking small-message sends ("sending a small message from one
// DataCutter filter to another filter is a non-blocking operation",
// §4.2), and a bounded mailbox would deadlock the pipelined BFS when a
// hub's expansion floods its peers faster than they poll. A positive
// buffer bounds each mailbox and applies sender back-pressure instead.
func NewInProc(size, buffer int) Fabric {
	if size < 1 {
		panic("cluster: fabric needs at least one node")
	}
	f := &inprocFabric{size: size}
	for i := 0; i < size; i++ {
		f.endpoints = append(f.endpoints, &inprocEndpoint{
			fabric: f,
			id:     NodeID(i),
			buffer: buffer,
			boxes:  make(map[ChannelID]*mailbox),
		})
	}
	return f
}

func (f *inprocFabric) Nodes() int { return f.size }

func (f *inprocFabric) Endpoint(n NodeID) Endpoint {
	if err := Validate(n, f.size); err != nil {
		panic(err)
	}
	return f.endpoints[n]
}

func (f *inprocFabric) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	for _, ep := range f.endpoints {
		ep.close()
	}
	return nil
}

func (f *inprocFabric) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// mailbox is a bounded FIFO with close semantics. A plain Go channel
// almost works, but we need "close wakes blocked receivers with an error
// while senders see ErrClosed too", which is simpler with a condition
// variable.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Message
	limit  int
	closed bool
}

func newMailbox(limit int) *mailbox {
	m := &mailbox{limit: limit}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(msg Message) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.limit > 0 && len(m.queue) >= m.limit && !m.closed {
		m.cond.Wait()
	}
	if m.closed {
		return ErrClosed
	}
	m.queue = append(m.queue, msg)
	m.cond.Broadcast()
	return nil
}

func (m *mailbox) get() (Message, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.queue) == 0 {
		return Message{}, ErrClosed
	}
	return m.popLocked(), nil
}

// popLocked dequeues the head. The vacated slot is zeroed and an emptied
// queue dropped: a mailbox outlives its query (it stays in the endpoint's
// map), and the backing array would otherwise keep every payload it ever
// delivered reachable.
func (m *mailbox) popLocked() Message {
	msg := m.queue[0]
	m.queue[0] = Message{}
	m.queue = m.queue[1:]
	if len(m.queue) == 0 {
		m.queue = nil
	}
	m.cond.Broadcast()
	return msg
}

// getCtx waits for a message or for ctx to be cancelled. A queued
// message is preferred over a cancellation that races with it.
func (m *mailbox) getCtx(ctx context.Context) (Message, error) {
	if ctx.Done() == nil {
		// Uncancellable context (Background/TODO): skip the AfterFunc
		// machinery entirely so the single-query hot path pays nothing.
		return m.get()
	}
	// A cancellation must wake the cond.Wait below; AfterFunc gives us
	// that without a polling loop.
	stop := context.AfterFunc(ctx, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer stop()
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) == 0 && !m.closed && ctx.Err() == nil {
		m.cond.Wait()
	}
	if len(m.queue) > 0 {
		return m.popLocked(), nil
	}
	if m.closed {
		return Message{}, ErrClosed
	}
	return Message{}, ctx.Err()
}

// getWithin waits up to d for a message, or until ctx is cancelled.
// ok=false with a nil error means the wait ended with the queue still
// empty.
func (m *mailbox) getWithin(ctx context.Context, d time.Duration) (Message, bool, error) {
	deadline := time.Now().Add(d)
	wake := func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	}
	timer := time.AfterFunc(d, wake)
	defer timer.Stop()
	defer context.AfterFunc(ctx, wake)()
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) == 0 && !m.closed && ctx.Err() == nil && time.Now().Before(deadline) {
		m.cond.Wait()
	}
	if len(m.queue) > 0 {
		return m.popLocked(), true, nil
	}
	if m.closed {
		return Message{}, false, ErrClosed
	}
	return Message{}, false, nil
}

func (m *mailbox) tryGet() (Message, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.queue) > 0 {
		return m.popLocked(), true, nil
	}
	if m.closed {
		return Message{}, false, ErrClosed
	}
	return Message{}, false, nil
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	// Drop queued messages: the Fabric contract is that every receive
	// after Close fails with ErrClosed, not that leftovers drain first.
	m.queue = nil
	m.cond.Broadcast()
	m.mu.Unlock()
}

type inprocEndpoint struct {
	fabric *inprocFabric
	id     NodeID
	buffer int

	mu    sync.Mutex
	boxes map[ChannelID]*mailbox
}

func (e *inprocEndpoint) box(ch ChannelID) *mailbox {
	e.mu.Lock()
	defer e.mu.Unlock()
	b, ok := e.boxes[ch]
	if !ok {
		b = newMailbox(e.buffer)
		if e.fabric.isClosed() {
			b.close()
		}
		e.boxes[ch] = b
	}
	return b
}

func (e *inprocEndpoint) close() {
	e.mu.Lock()
	boxes := make([]*mailbox, 0, len(e.boxes))
	for _, b := range e.boxes {
		boxes = append(boxes, b)
	}
	e.mu.Unlock()
	for _, b := range boxes {
		b.close()
	}
}

func (e *inprocEndpoint) ID() NodeID { return e.id }

func (e *inprocEndpoint) Nodes() int { return e.fabric.size }

func (e *inprocEndpoint) Send(to NodeID, ch ChannelID, payload []byte) error {
	if err := Validate(to, e.fabric.size); err != nil {
		return err
	}
	if e.fabric.isClosed() {
		return ErrClosed
	}
	dst := e.fabric.endpoints[to]
	return dst.box(ch).put(Message{From: e.id, Channel: ch, Payload: payload})
}

func (e *inprocEndpoint) Broadcast(ch ChannelID, payload []byte) error {
	for n := 0; n < e.fabric.size; n++ {
		if NodeID(n) == e.id {
			continue
		}
		// Each destination gets its own copy: mailboxes own payloads.
		p := make([]byte, len(payload))
		copy(p, payload)
		if err := e.Send(NodeID(n), ch, p); err != nil {
			return err
		}
	}
	return nil
}

func (e *inprocEndpoint) Recv(ch ChannelID) (Message, error) {
	return e.box(ch).get()
}

func (e *inprocEndpoint) RecvCtx(ctx context.Context, ch ChannelID) (Message, error) {
	return e.box(ch).getCtx(ctx)
}

func (e *inprocEndpoint) TryRecv(ch ChannelID) (Message, bool, error) {
	return e.box(ch).tryGet()
}
