package cluster

import (
	"errors"
	"sync"
	"testing"
)

// TestOpsAfterClose pins the post-Close contract on every fabric: once
// Close returns, every endpoint operation — including receives of
// messages that were still queued — fails with ErrClosed.
func TestOpsAfterClose(t *testing.T) {
	for name, f := range fabrics(t, 3) {
		t.Run(name, func(t *testing.T) {
			ep := f.Endpoint(0)
			// Leave a message queued at node 1 to prove Close drops it.
			if err := ep.Send(1, 7, []byte("queued")); err != nil {
				t.Fatalf("Send before close: %v", err)
			}
			if err := f.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			if err := ep.Send(1, 7, []byte("x")); !errors.Is(err, ErrClosed) {
				t.Errorf("Send after close = %v, want ErrClosed", err)
			}
			if err := ep.Broadcast(7, []byte("x")); !errors.Is(err, ErrClosed) {
				t.Errorf("Broadcast after close = %v, want ErrClosed", err)
			}
			if _, err := f.Endpoint(1).Recv(7); !errors.Is(err, ErrClosed) {
				t.Errorf("Recv after close = %v, want ErrClosed", err)
			}
			if _, ok, err := f.Endpoint(1).TryRecv(7); ok || !errors.Is(err, ErrClosed) {
				t.Errorf("TryRecv after close = (%v, %v), want (false, ErrClosed)", ok, err)
			}
			// Receiving on a channel never used before Close must fail the
			// same way (mailboxes created lazily after Close are born closed).
			if _, err := ep.Recv(999); !errors.Is(err, ErrClosed) {
				t.Errorf("Recv on fresh channel after close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestBarrierAfterClose pins that collectives fail with ErrClosed rather
// than deadlock when the fabric closes underneath them. An empty-vector
// reduction is the barrier.
func TestBarrierAfterClose(t *testing.T) {
	for name, f := range fabrics(t, 3) {
		t.Run(name, func(t *testing.T) {
			if err := f.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			var wg sync.WaitGroup
			errs := make([]error, f.Nodes())
			for i := 0; i < f.Nodes(); i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					coll := NewCollective(f.Endpoint(NodeID(i)), 41, 42)
					errs[i] = coll.AllReduceSum(nil)
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if !errors.Is(err, ErrClosed) {
					t.Errorf("node %d Barrier after close = %v, want ErrClosed", i, err)
				}
			}
		})
	}
}
