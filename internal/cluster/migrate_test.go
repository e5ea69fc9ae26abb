package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// kvPeer is a toy MigratePeer: each node owns a set of keys and the
// migration moves a chosen subset to a destination. Payloads are single
// bytes; verify ships the expected count.
type kvPeer struct {
	self  NodeID
	moves map[byte]NodeID // key -> destination (source side)

	mu       sync.Mutex
	got      map[byte]bool
	catchup  []byte // keys that appear only in the catch-up pass
	expected map[NodeID]int
	bad      string
	passes   []MigratePass
}

func newKVPeer(self NodeID, moves map[byte]NodeID) *kvPeer {
	return &kvPeer{self: self, moves: moves, got: make(map[byte]bool), expected: make(map[NodeID]int)}
}

func (p *kvPeer) Ship(pass MigratePass, emit func(NodeID, []byte) error) error {
	switch pass {
	case PassCopy:
		for k, dest := range p.moves {
			if err := emit(dest, []byte{k}); err != nil {
				return err
			}
		}
	case PassCatchup:
		p.mu.Lock()
		extra := append([]byte(nil), p.catchup...)
		p.mu.Unlock()
		for _, k := range extra {
			if err := emit(p.moves[k], []byte{k}); err != nil {
				return err
			}
		}
	case PassVerify:
		counts := make(map[NodeID]int)
		for _, dest := range p.moves {
			counts[dest]++
		}
		for dest, n := range counts {
			if err := emit(dest, []byte{byte(n)}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *kvPeer) Receive(pass MigratePass, from NodeID, payload []byte) error {
	if len(payload) != 1 {
		return fmt.Errorf("bad payload %x", payload)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if pass == PassVerify {
		p.expected[from] += int(payload[0])
		return nil
	}
	p.got[payload[0]] = true
	return nil
}

func (p *kvPeer) PassDone(pass MigratePass) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.passes = append(p.passes, pass)
	return nil
}

func (p *kvPeer) Verdict() (bool, string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	want := 0
	for _, n := range p.expected {
		want += n
	}
	if p.bad != "" {
		return false, p.bad
	}
	if want != len(p.got) {
		return false, fmt.Sprintf("node %d holds %d keys, verify promised %d", p.self, len(p.got), want)
	}
	return true, ""
}

func TestRunMigrationMovesAndVerifies(t *testing.T) {
	f := NewInProc(4, 0)
	defer f.Close()
	peers := map[NodeID]*kvPeer{
		0: newKVPeer(0, map[byte]NodeID{'a': 2, 'b': 3}),
		1: newKVPeer(1, map[byte]NodeID{'c': 3, 'z': 1}), // 'z' moves to itself
		2: newKVPeer(2, nil),
		3: newKVPeer(3, nil),
	}
	// 'd' shows up between copy and catch-up, as if ingested mid-copy.
	hooked := false
	err := RunMigration(f, func(n NodeID) MigratePeer { return peers[n] }, MigrateOptions{
		Hook: func(pass MigratePass) error {
			if pass == PassCatchup && !hooked {
				hooked = true
				p := peers[0]
				p.mu.Lock()
				p.moves['d'] = 2
				p.catchup = append(p.catchup, 'd')
				p.mu.Unlock()
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("RunMigration: %v", err)
	}
	for _, want := range []struct {
		node NodeID
		keys string
	}{{2, "ad"}, {3, "bc"}, {1, "z"}} {
		p := peers[want.node]
		for i := 0; i < len(want.keys); i++ {
			if !p.got[want.keys[i]] {
				t.Errorf("node %d missing key %q (has %v)", want.node, want.keys[i], p.got)
			}
		}
	}
	for n, p := range peers {
		if len(p.passes) != 3 {
			t.Errorf("node %d finalized %v, want all three passes", n, p.passes)
		}
	}
}

func TestRunMigrationHookAborts(t *testing.T) {
	f := NewInProc(3, 0)
	defer f.Close()
	peers := map[NodeID]*kvPeer{
		0: newKVPeer(0, map[byte]NodeID{'a': 1}),
		1: newKVPeer(1, nil),
		2: newKVPeer(2, nil),
	}
	err := RunMigration(f, func(n NodeID) MigratePeer { return peers[n] }, MigrateOptions{
		Hook: func(pass MigratePass) error {
			if pass == PassCatchup {
				return fmt.Errorf("chaos: coordinator vetoes")
			}
			return nil
		},
	})
	if !errors.Is(err, ErrMigrationAborted) {
		t.Fatalf("err = %v, want ErrMigrationAborted", err)
	}
	// The abort hit after copy: no node may have run catch-up or verify.
	for n, p := range peers {
		for _, pass := range p.passes {
			if pass != PassCopy {
				t.Errorf("node %d ran %s after the abort boundary", n, pass)
			}
		}
	}
}

func TestRunMigrationVerifyFailure(t *testing.T) {
	f := NewInProc(2, 0)
	defer f.Close()
	peers := map[NodeID]*kvPeer{
		0: newKVPeer(0, map[byte]NodeID{'a': 1}),
		1: newKVPeer(1, nil),
	}
	peers[1].bad = "injected checksum mismatch"
	err := RunMigration(f, func(n NodeID) MigratePeer { return peers[n] }, MigrateOptions{})
	if !errors.Is(err, ErrMigrationVerify) {
		t.Fatalf("err = %v, want ErrMigrationVerify", err)
	}
}

func TestRunMigrationSubsetParticipants(t *testing.T) {
	f := NewInProc(5, 0)
	defer f.Close()
	peers := map[NodeID]*kvPeer{
		1: newKVPeer(1, map[byte]NodeID{'x': 4}),
		4: newKVPeer(4, nil),
	}
	err := RunMigration(f, func(n NodeID) MigratePeer { return peers[n] }, MigrateOptions{
		Participants: []NodeID{1, 4},
	})
	if err != nil {
		t.Fatalf("RunMigration: %v", err)
	}
	if !peers[4].got['x'] {
		t.Fatal("key did not move to node 4")
	}
}

// shipFailPeer is a kvPeer whose Ship fails in one pass, as a source
// without a vertex scan does in the copy pass.
type shipFailPeer struct {
	*kvPeer
	failIn MigratePass
}

func (p shipFailPeer) Ship(pass MigratePass, emit func(NodeID, []byte) error) error {
	if pass == p.failIn {
		return errors.New("injected ship failure")
	}
	return p.kvPeer.Ship(pass, emit)
}

// A failed Ship on one node must end the migration with an error on
// every participant at the next gate, not leave the others blocked
// waiting for its end-of-stream frames.
func TestRunMigrationShipFailureDoesNotHang(t *testing.T) {
	before := runtime.NumGoroutine()
	f := NewInProc(4, 0)
	peers := map[NodeID]MigratePeer{
		0: newKVPeer(0, map[byte]NodeID{'a': 2}),
		1: shipFailPeer{newKVPeer(1, map[byte]NodeID{'b': 3}), PassCopy},
		2: newKVPeer(2, nil),
		3: newKVPeer(3, nil),
	}
	done := make(chan error, 1)
	go func() {
		done <- RunMigration(f, func(n NodeID) MigratePeer { return peers[n] }, MigrateOptions{})
	}()
	select {
	case err := <-done:
		if err == nil || !errors.Is(err, ErrMigrationAborted) {
			t.Fatalf("err = %v, want the ship failure plus the peers' aborts", err)
		}
		for _, n := range []int{0, 1, 2, 3} {
			if want := fmt.Sprintf("node %d:", n); !strings.Contains(err.Error(), want) {
				t.Errorf("err lacks %q: %v", want, err)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunMigration hung after a failed Ship")
	}
	for _, p := range peers {
		if kv, ok := p.(*kvPeer); ok && len(kv.passes) > 1 {
			t.Errorf("node %d finalized %v, want nothing past copy", kv.self, kv.passes)
		}
	}
	f.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines: %d before, %d after the migration", before, n)
	}
}

func TestKillCrashesNodeOnDemand(t *testing.T) {
	inner := NewInProc(3, 0)
	faulty := NewFaulty(inner, Plan{Seed: 1})
	rel := NewReliable(faulty, ReliableOptions{})
	defer rel.Close()
	if !Kill(rel, 2) {
		t.Fatal("Kill did not find the fault layer through the reliable wrapper")
	}
	if err := rel.Endpoint(2).Send(0, 5, []byte{1}); err == nil {
		t.Fatal("killed node can still send")
	}
}
