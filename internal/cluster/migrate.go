// Live shard migration: the transport-level engine that moves shard data
// between nodes in three passes — bulk copy, catch-up, verify — while
// the rest of the system keeps serving queries. The engine is data
// agnostic: what a shard is, which bytes move, and how the destination
// checks them is delegated to a per-node MigratePeer (internal/ingest
// implements one over graph windows). The engine owns pass sequencing,
// end-of-stream accounting, the phase-boundary gates every participant
// agrees on, and the global verify verdict.
//
// Each pass runs shipper and receiver concurrently on every participant;
// a pass ends when every peer has received an EOS frame from every other
// peer. Passes are separated by an all-reduce gate that doubles as the
// abort broadcast: the coordinator (lowest participant) runs the caller's
// phase hook and contributes 0 to the gate when the hook vetoes, and a
// participant whose pass failed contributes 0 too, so all nodes abandon
// the migration at the same boundary. Running over the
// reliable fabric gives the copy stream exactly-once windows (seq/ack/
// dedup) and turns a mid-migration participant death into a prompt
// NodeDownError instead of a hang.
package cluster

import (
	"errors"
	"fmt"
)

// MigratePass names the data-moving passes of a migration.
type MigratePass int

const (
	// PassCopy bulk-copies every moving shard to its new replicas.
	PassCopy MigratePass = iota
	// PassCatchup re-ships the suffix ingested while the copy ran.
	PassCatchup
	// PassVerify streams shard checksums for destination-side comparison.
	PassVerify
	// PassCommit is not a data pass: it names the final phase boundary,
	// where the hook runs one last time before the verdict is reduced and
	// the caller flips the epoch.
	PassCommit
	numPasses = PassCommit
)

func (p MigratePass) String() string {
	switch p {
	case PassCopy:
		return "copy"
	case PassCatchup:
		return "catchup"
	case PassVerify:
		return "verify"
	case PassCommit:
		return "commit"
	}
	return fmt.Sprintf("pass(%d)", int(p))
}

// MigratePeer is one node's role in a migration. The engine calls Ship
// and Receive concurrently (shipper and receiver goroutines of the same
// pass), so implementations must synchronize state they share between
// the two.
type MigratePeer interface {
	// Ship produces this node's outbound payloads for the pass, calling
	// emit for each. emit delivers to the peer on node dest (dest may be
	// this node). Ship returning an error fails the migration.
	Ship(pass MigratePass, emit func(dest NodeID, payload []byte) error) error
	// Receive handles one payload addressed to this node.
	Receive(pass MigratePass, from NodeID, payload []byte) error
	// PassDone runs after the node has shipped and received everything in
	// the pass and before the next phase gate — the place to make
	// received state durable (checkpoint + flush).
	PassDone(pass MigratePass) error
	// Verdict reports, after PassVerify, whether every shard this node
	// received checks out.
	Verdict() (ok bool, detail string)
}

// ErrMigrationAborted reports a migration stopped at a phase boundary by
// the caller's hook (or a peer's veto) with no epoch change.
var ErrMigrationAborted = errors.New("cluster: migration aborted at phase boundary")

// ErrMigrationVerify reports a destination-side checksum mismatch.
var ErrMigrationVerify = errors.New("cluster: migration verify failed")

// MigrateOptions tunes RunMigration.
type MigrateOptions struct {
	// Participants is the ascending node set taking part (sources,
	// destinations, and any node that must agree on the epoch flip). Nil
	// means every fabric node.
	Participants []NodeID
	// Hook, when non-nil, runs on the coordinator before each pass and
	// once more at the PassCommit boundary, before the verify verdict is
	// reduced. An error aborts the migration cleanly: every
	// participant returns ErrMigrationAborted and no pass beyond the
	// boundary runs.
	Hook func(pass MigratePass) error
}

// Migration frame layout on the data channel: kind, pass, payload.
const (
	frameData = byte(iota)
	frameEOS
)

// RunMigration drives the three passes across opt.Participants, using
// peer(n) as node n's role. It returns nil only when every pass
// completed everywhere and every destination's verify verdict is clean.
// On any failure the caller still owns the routing state: nothing here
// touches placement, so the old epoch stays authoritative.
func RunMigration(f Fabric, peer func(n NodeID) MigratePeer, opt MigrateOptions) error {
	parts := opt.Participants
	if parts == nil {
		parts = make([]NodeID, f.Nodes())
		for i := range parts {
			parts[i] = NodeID(i)
		}
	}
	if len(parts) == 0 {
		return fmt.Errorf("cluster: migration needs at least one participant")
	}
	for i, n := range parts {
		if i > 0 && n <= parts[i-1] {
			return fmt.Errorf("cluster: migration participants not ascending at %d", n)
		}
	}
	ns, err := Namespaces().Lease()
	if err != nil {
		return err
	}
	defer ns.DrainAndRelease(f)
	chData, chUp, chDn := ns.Channel(0), ns.Channel(1), ns.Channel(2)
	coordinator := parts[0]

	return RunOn(f, parts, func(ep Endpoint) error {
		p := peer(ep.ID())
		coll := NewCollective(ep, chUp, chDn).WithParticipants(parts)
		// A pass error is voted 0 at the next gate, not returned at once,
		// so no peer is left waiting on this node.
		var failed error
		for pass := PassCopy; pass <= numPasses; pass++ {
			// Phase gate: the coordinator's hook result is folded into an
			// all-reduce, so every node learns about an abort at the same
			// boundary and none starts the next pass.
			vote := int64(1)
			if failed != nil {
				vote = 0
			} else if ep.ID() == coordinator && opt.Hook != nil {
				if err := opt.Hook(pass); err != nil {
					vote = 0
				}
			}
			cont, err := coll.AllReduceMin(vote)
			if err != nil {
				return errors.Join(failed, fmt.Errorf("cluster: migration %s gate on node %d: %w", pass, ep.ID(), err))
			}
			if failed != nil {
				return failed
			}
			if cont == 0 {
				return fmt.Errorf("%w (before %s)", ErrMigrationAborted, pass)
			}
			if pass == numPasses {
				break
			}
			if failed = runPass(ep, p, pass, parts, chData); failed == nil {
				if err := p.PassDone(pass); err != nil {
					failed = fmt.Errorf("cluster: migration %s finalize on node %d: %w", pass, ep.ID(), err)
				}
			}
		}
		ok, detail := p.Verdict()
		vote := int64(1)
		if !ok {
			vote = 0
		}
		global, err := coll.AllReduceMin(vote)
		if err != nil {
			return fmt.Errorf("cluster: migration verdict on node %d: %w", ep.ID(), err)
		}
		if global == 0 {
			if !ok {
				return fmt.Errorf("%w on node %d: %s", ErrMigrationVerify, ep.ID(), detail)
			}
			return ErrMigrationVerify
		}
		return nil
	})
}

// runPass runs one pass on one node: a shipper goroutine emitting this
// node's outbound frames (ending with an EOS to every other participant)
// and a receiver loop that applies inbound frames until it has seen EOS
// from every other participant. Per-(sender, channel) FIFO delivery —
// guaranteed by both the in-process and the reliable fabric — makes the
// trailing EOS a correct end-of-stream marker. A failed Ship still sends
// its EOS and a failed apply keeps draining, so the pass ends everywhere.
func runPass(ep Endpoint, p MigratePeer, pass MigratePass, parts []NodeID, chData ChannelID) error {
	self := ep.ID()
	shipErr := make(chan error, 1)
	go func() {
		emit := func(dest NodeID, payload []byte) error {
			if dest == self {
				// A node can be source and destination at once; local
				// payloads skip the fabric.
				return p.Receive(pass, self, payload)
			}
			frame := make([]byte, 0, 2+len(payload))
			frame = append(frame, frameData, byte(pass))
			frame = append(frame, payload...)
			return ep.Send(dest, chData, frame)
		}
		var err error
		if e := p.Ship(pass, emit); e != nil {
			err = fmt.Errorf("cluster: migration %s ship on node %d: %w", pass, self, e)
		}
		for _, n := range parts {
			if n == self {
				continue
			}
			if e := ep.Send(n, chData, []byte{frameEOS, byte(pass)}); e != nil {
				err = errors.Join(err, fmt.Errorf("cluster: migration %s eos %d->%d: %w", pass, self, n, e))
			}
		}
		shipErr <- err
	}()

	var recvErr error
	for eos := 0; eos < len(parts)-1; {
		msg, err := ep.Recv(chData)
		if err != nil {
			recvErr = errors.Join(recvErr, fmt.Errorf("cluster: migration %s recv on node %d: %w", pass, self, err))
			break
		}
		var bad error
		switch {
		case len(msg.Payload) < 2 || MigratePass(msg.Payload[1]) != pass:
			bad = fmt.Errorf("cluster: migration %s recv on node %d: bad frame from %d", pass, self, msg.From)
		case msg.Payload[0] == frameEOS:
			eos++
		case msg.Payload[0] == frameData:
			if err := p.Receive(pass, msg.From, msg.Payload[2:]); err != nil {
				bad = fmt.Errorf("cluster: migration %s apply on node %d: %w", pass, self, err)
			}
		default:
			bad = fmt.Errorf("cluster: migration %s recv on node %d: unknown frame kind %d", pass, self, msg.Payload[0])
		}
		if recvErr == nil {
			recvErr = bad
		}
	}
	return errors.Join(<-shipErr, recvErr)
}
