package cluster

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mssg/internal/obs"
)

// Plan scripts deterministic fault injection for a faulty fabric. Every
// per-message decision (drop, duplicate, corrupt, delay, injected send
// error) is derived from a hash of (Seed, from, to, channel, message
// index on that triple), so a given plan perturbs the same messages on
// every run regardless of goroutine interleaving. Probabilities are
// independent fractions in [0,1]; the drop/duplicate/corrupt/delay roll
// is exclusive (at most one of them fires per message).
type Plan struct {
	// Seed drives every pseudo-random decision.
	Seed int64
	// DropProb is the fraction of remote messages silently discarded.
	DropProb float64
	// DupProb is the fraction of remote messages delivered twice.
	DupProb float64
	// CorruptProb is the fraction of remote messages with one payload
	// byte flipped in transit.
	CorruptProb float64
	// DelayProb is the fraction of remote messages delivered late (and
	// therefore possibly reordered past later sends).
	DelayProb float64
	// MaxDelay bounds injected delays; <= 0 means 2ms.
	MaxDelay time.Duration
	// SendErrProb is the fraction of remote sends that return an
	// ErrTimeout-wrapped injected error to the caller even though the
	// message WAS handed to the transport — the classic ambiguous
	// failure that forces idempotent retry protocols.
	SendErrProb float64
	// Crashes stops individual nodes on a scripted schedule.
	Crashes []Crash
}

// Crash stops one node: once the node has attempted AfterSends outgoing
// messages (application sends plus any protocol traffic such as acks and
// heartbeats), all of its endpoint operations fail with ErrNodeDown and
// messages addressed to it vanish, exactly as if the process had died.
type Crash struct {
	Node       NodeID
	AfterSends int64
}

// SoakPlan is the lossy-fabric soak the commands run under -fault-seed:
// a fraction p of remote messages dropped, p/5 duplicated and p delayed
// by up to 200µs.
func SoakPlan(seed int64, p float64) Plan {
	return Plan{Seed: seed, DropProb: p, DupProb: p / 5, DelayProb: p, MaxDelay: 200 * time.Microsecond}
}

func (p *Plan) maxDelay() time.Duration {
	if p.MaxDelay <= 0 {
		return 2 * time.Millisecond
	}
	return p.MaxDelay
}

// faultyFabric wraps an inner fabric and perturbs its traffic according
// to a Plan. Local (self) delivery is exempt: it models an in-process
// queue operation, not a network hop.
type faultyFabric struct {
	inner     Fabric
	plan      Plan
	endpoints []*faultyEndpoint

	// Injection accounting: per-channel groups plus per-kind totals, so
	// a chaos run can report exactly what the plan actually perturbed.
	met          *fabricMetrics
	mDrops       *obs.Counter
	mDups        *obs.Counter
	mCorruptions *obs.Counter
	mDelays      *obs.Counter
	mSendErrs    *obs.Counter
	mCrashes     *obs.Counter

	mu     sync.Mutex
	closed bool
}

// NewFaulty wraps inner with scripted fault injection. Closing the
// returned fabric closes inner too.
func NewFaulty(inner Fabric, plan Plan) Fabric {
	reg := obs.Default()
	f := &faultyFabric{
		inner: inner, plan: plan,
		met:          newFabricMetrics("cluster.faulty"),
		mDrops:       reg.Counter("cluster.faulty.drops"),
		mDups:        reg.Counter("cluster.faulty.dups"),
		mCorruptions: reg.Counter("cluster.faulty.corruptions"),
		mDelays:      reg.Counter("cluster.faulty.delays"),
		mSendErrs:    reg.Counter("cluster.faulty.send_errors"),
		mCrashes:     reg.Counter("cluster.faulty.crashes"),
	}
	for i := 0; i < inner.Nodes(); i++ {
		ep := &faultyEndpoint{
			fabric:     f,
			inner:      inner.Endpoint(NodeID(i)),
			crashAfter: -1,
			seqs:       make(map[pairKey]uint64),
		}
		ep.crashCtx, ep.crashCancel = context.WithCancel(context.Background())
		for _, c := range plan.Crashes {
			if c.Node == NodeID(i) {
				ep.crashAfter = c.AfterSends
			}
		}
		f.endpoints = append(f.endpoints, ep)
	}
	return f
}

func (f *faultyFabric) Nodes() int { return f.inner.Nodes() }

func (f *faultyFabric) Endpoint(n NodeID) Endpoint {
	if err := Validate(n, f.inner.Nodes()); err != nil {
		panic(err)
	}
	return f.endpoints[n]
}

func (f *faultyFabric) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	return f.inner.Close()
}

func (f *faultyFabric) isClosed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.closed
}

// NodeKiller is implemented by fabrics that can crash a node on demand —
// the chaos suites' way of killing a migration participant at an exact
// phase boundary rather than after a counted number of sends.
type NodeKiller interface {
	Kill(n NodeID)
}

// Kill crashes node n immediately: its future sends fail, sends to it
// vanish, and its pending receives drain with a NodeDownError, exactly
// as if a planned crash had just triggered.
func (f *faultyFabric) Kill(n NodeID) {
	if err := Validate(n, f.inner.Nodes()); err != nil {
		panic(err)
	}
	f.endpoints[n].crash()
}

// Kill forwards to the first NodeKiller in f's wrapper chain (the
// reliable fabric exposes its inner fabric via Unwrap). It reports
// whether a killer was found.
func Kill(f Fabric, n NodeID) bool {
	for f != nil {
		if k, ok := f.(NodeKiller); ok {
			k.Kill(n)
			return true
		}
		u, ok := f.(interface{ Unwrap() Fabric })
		if !ok {
			return false
		}
		f = u.Unwrap()
	}
	return false
}

// pairKey identifies one (destination/source, channel) message stream.
type pairKey struct {
	node NodeID
	ch   ChannelID
}

type faultyEndpoint struct {
	fabric     *faultyFabric
	inner      Endpoint
	crashAfter int64 // <0: this node never crashes
	sends      atomic.Int64
	crashed    atomic.Bool
	// crashCtx is cancelled the instant the node crashes, so receives
	// already blocked inside the inner fabric drain with the crash error
	// instead of waiting forever for traffic that will never arrive — a
	// dead process's pending reads fail, they don't hang. Layers above
	// (the reliable pump) rely on that to record the node's terminal
	// state and stop counting its stale liveness votes.
	crashCtx    context.Context
	crashCancel context.CancelFunc

	mu   sync.Mutex
	seqs map[pairKey]uint64
}

// crash marks the node dead and wakes its blocked receives.
func (e *faultyEndpoint) crash() {
	if !e.crashed.Swap(true) {
		e.fabric.mCrashes.Inc()
		obs.DefaultTracer().Emit("fault.crash", map[string]string{
			"node": strconv.Itoa(int(e.inner.ID())),
		})
	}
	e.crashCancel()
}

func (e *faultyEndpoint) ID() NodeID { return e.inner.ID() }
func (e *faultyEndpoint) Nodes() int { return e.inner.Nodes() }

func (e *faultyEndpoint) errCrashed() error {
	return &NodeDownError{Node: e.inner.ID(), Reason: "crashed by fault plan"}
}

// mix is the splitmix64 finalizer — a cheap avalanche hash.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func frac(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// rolls derives this message's fault decisions from the plan seed and
// the message's coordinates. h2/h3 feed corruption position and delay.
func (e *faultyEndpoint) rolls(to NodeID, ch ChannelID) (u, v float64, h2, h3 uint64) {
	k := pairKey{to, ch}
	e.mu.Lock()
	n := e.seqs[k]
	e.seqs[k] = n + 1
	e.mu.Unlock()
	base := mix(uint64(e.fabric.plan.Seed)) ^
		mix(uint64(e.inner.ID())<<42|uint64(to)<<21|uint64(ch))
	h1 := mix(base ^ (n+1)*0x9e3779b97f4a7c15)
	h2 = mix(h1)
	h3 = mix(h2)
	return frac(h1), frac(mix(h3)), h2, h3
}

func (e *faultyEndpoint) Send(to NodeID, ch ChannelID, payload []byte) error {
	if e.fabric.isClosed() {
		return ErrClosed
	}
	if err := Validate(to, e.inner.Nodes()); err != nil {
		return err
	}
	n := e.sends.Add(1)
	if e.crashAfter >= 0 && n > e.crashAfter {
		e.crash()
	}
	if e.crashed.Load() {
		return e.errCrashed()
	}
	if to == e.inner.ID() {
		return e.inner.Send(to, ch, payload)
	}
	dst := e.fabric.endpoints[to]
	if dst.crashed.Load() {
		// A send to a dead node vanishes without a local error, like a
		// datagram to a dead host.
		return nil
	}

	p := &e.fabric.plan
	cm := e.fabric.met.channel(ch)
	cm.sends.Inc()
	cm.sendBytes.Add(int64(len(payload)))
	u, v, h2, h3 := e.rolls(to, ch)
	var injected error
	if v < p.SendErrProb {
		e.fabric.mSendErrs.Inc()
		cm.injected.Inc()
		injected = fmt.Errorf("%w: injected send failure %d->%d",
			ErrTimeout, e.inner.ID(), to)
	}

	cut := p.DropProb
	switch {
	case u < cut:
		// Dropped in transit.
		e.fabric.mDrops.Inc()
		cm.drops.Inc()
	case u < cut+p.DupProb:
		e.fabric.mDups.Inc()
		cm.injected.Inc()
		c := make([]byte, len(payload))
		copy(c, payload)
		if err := e.inner.Send(to, ch, c); err != nil {
			return err
		}
		if err := e.inner.Send(to, ch, payload); err != nil {
			return err
		}
	case u < cut+p.DupProb+p.CorruptProb && len(payload) > 0:
		e.fabric.mCorruptions.Inc()
		cm.injected.Inc()
		c := make([]byte, len(payload))
		copy(c, payload)
		c[h2%uint64(len(c))] ^= byte(1 + h3%255)
		if err := e.inner.Send(to, ch, c); err != nil {
			return err
		}
	case u < cut+p.DupProb+p.CorruptProb+p.DelayProb:
		e.fabric.mDelays.Inc()
		cm.injected.Inc()
		d := time.Duration(frac(h3) * float64(p.maxDelay()))
		time.AfterFunc(d, func() {
			if e.fabric.isClosed() || dst.crashed.Load() {
				return
			}
			_ = e.inner.Send(to, ch, payload) // best effort, like the wire
		})
	default:
		if err := e.inner.Send(to, ch, payload); err != nil {
			return err
		}
	}
	return injected
}

func (e *faultyEndpoint) Broadcast(ch ChannelID, payload []byte) error {
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

func (e *faultyEndpoint) Recv(ch ChannelID) (Message, error) {
	msg, err := e.inner.RecvCtx(e.crashCtx, ch)
	if e.crashed.Load() {
		return Message{}, e.errCrashed()
	}
	return msg, err
}

func (e *faultyEndpoint) RecvCtx(ctx context.Context, ch ChannelID) (Message, error) {
	if e.crashed.Load() {
		return Message{}, e.errCrashed()
	}
	// Merge the caller's context with the crash signal so a kill also
	// drains receives that are blocked under the caller's (still live)
	// context.
	mctx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(e.crashCtx, cancel)
	defer stop()
	msg, err := e.inner.RecvCtx(mctx, ch)
	if e.crashed.Load() {
		return Message{}, e.errCrashed()
	}
	return msg, err
}

func (e *faultyEndpoint) TryRecv(ch ChannelID) (Message, bool, error) {
	if e.crashed.Load() {
		return Message{}, false, e.errCrashed()
	}
	return e.inner.TryRecv(ch)
}
