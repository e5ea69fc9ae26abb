package cluster

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

// fabrics returns both transport implementations for table-driven tests.
func fabrics(t *testing.T, size int) map[string]Fabric {
	t.Helper()
	out := map[string]Fabric{
		"inproc": NewInProc(size, 64),
	}
	tcp, err := NewTCP(size, 64)
	if err != nil {
		t.Fatalf("NewTCP: %v", err)
	}
	out["tcp"] = tcp
	for _, f := range out {
		f := f
		t.Cleanup(func() { f.Close() })
	}
	return out
}

func TestPointToPoint(t *testing.T) {
	for name, f := range fabrics(t, 3) {
		t.Run(name, func(t *testing.T) {
			if err := f.Endpoint(0).Send(2, 7, []byte("hello")); err != nil {
				t.Fatalf("Send: %v", err)
			}
			msg, err := f.Endpoint(2).Recv(7)
			if err != nil {
				t.Fatalf("Recv: %v", err)
			}
			if msg.From != 0 || string(msg.Payload) != "hello" || msg.Channel != 7 {
				t.Fatalf("got %+v", msg)
			}
		})
	}
}

func TestSelfSend(t *testing.T) {
	for name, f := range fabrics(t, 2) {
		t.Run(name, func(t *testing.T) {
			ep := f.Endpoint(1)
			if err := ep.Send(1, 3, []byte("self")); err != nil {
				t.Fatalf("Send to self: %v", err)
			}
			msg, err := ep.Recv(3)
			if err != nil || string(msg.Payload) != "self" {
				t.Fatalf("Recv = %v, %v", msg, err)
			}
		})
	}
}

func TestChannelsAreIndependent(t *testing.T) {
	for name, f := range fabrics(t, 2) {
		t.Run(name, func(t *testing.T) {
			ep0, ep1 := f.Endpoint(0), f.Endpoint(1)
			if err := ep0.Send(1, 10, []byte("a")); err != nil {
				t.Fatal(err)
			}
			if err := ep0.Send(1, 20, []byte("b")); err != nil {
				t.Fatal(err)
			}
			// Receive in the opposite order of sending.
			m20, err := ep1.Recv(20)
			if err != nil || string(m20.Payload) != "b" {
				t.Fatalf("channel 20: %v %v", m20, err)
			}
			m10, err := ep1.Recv(10)
			if err != nil || string(m10.Payload) != "a" {
				t.Fatalf("channel 10: %v %v", m10, err)
			}
		})
	}
}

func TestFIFOPerSender(t *testing.T) {
	for name, f := range fabrics(t, 2) {
		t.Run(name, func(t *testing.T) {
			ep0, ep1 := f.Endpoint(0), f.Endpoint(1)
			const n = 50
			for i := 0; i < n; i++ {
				if err := ep0.Send(1, 5, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				msg, err := ep1.Recv(5)
				if err != nil {
					t.Fatal(err)
				}
				if msg.Payload[0] != byte(i) {
					t.Fatalf("message %d arrived out of order: %d", i, msg.Payload[0])
				}
			}
		})
	}
}

func TestBroadcast(t *testing.T) {
	for name, f := range fabrics(t, 4) {
		t.Run(name, func(t *testing.T) {
			if err := f.Endpoint(1).Broadcast(9, []byte("bc")); err != nil {
				t.Fatal(err)
			}
			for n := 0; n < 4; n++ {
				if n == 1 {
					continue
				}
				msg, err := f.Endpoint(NodeID(n)).Recv(9)
				if err != nil || string(msg.Payload) != "bc" || msg.From != 1 {
					t.Fatalf("node %d: %v %v", n, msg, err)
				}
			}
			// The sender must not receive its own broadcast.
			if _, ok, _ := f.Endpoint(1).TryRecv(9); ok {
				t.Fatal("sender received its own broadcast")
			}
		})
	}
}

func TestTryRecv(t *testing.T) {
	for name, f := range fabrics(t, 2) {
		t.Run(name, func(t *testing.T) {
			ep := f.Endpoint(0)
			if _, ok, err := ep.TryRecv(1); ok || err != nil {
				t.Fatalf("TryRecv on empty = ok:%v err:%v", ok, err)
			}
			if err := f.Endpoint(1).Send(0, 1, []byte("x")); err != nil {
				t.Fatal(err)
			}
			// TCP delivery is asynchronous; poll briefly.
			var got bool
			for i := 0; i < 1000 && !got; i++ {
				_, got, _ = ep.TryRecv(1)
			}
			if name == "inproc" && !got {
				t.Fatal("inproc TryRecv never saw the message")
			}
			if !got {
				// TCP: fall back to a blocking receive.
				if _, err := ep.Recv(1); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

func TestCloseUnblocksReceivers(t *testing.T) {
	for name, f := range fabrics(t, 2) {
		t.Run(name, func(t *testing.T) {
			done := make(chan error, 1)
			go func() {
				_, err := f.Endpoint(0).Recv(99)
				done <- err
			}()
			f.Close()
			if err := <-done; err != ErrClosed {
				t.Fatalf("Recv after close = %v, want ErrClosed", err)
			}
			if err := f.Endpoint(0).Send(1, 1, nil); err == nil {
				t.Fatal("Send after close succeeded")
			}
		})
	}
}

func TestSendValidation(t *testing.T) {
	f := NewInProc(2, 8)
	defer f.Close()
	if err := f.Endpoint(0).Send(5, 1, nil); err == nil {
		t.Fatal("Send to out-of-range node succeeded")
	}
	if err := f.Endpoint(0).Send(-1, 1, nil); err == nil {
		t.Fatal("Send to negative node succeeded")
	}
}

func TestOwnerMapping(t *testing.T) {
	for v := int64(0); v < 100; v++ {
		o := Owner(v, 8)
		if o != NodeID(v%8) {
			t.Fatalf("Owner(%d,8) = %d", v, o)
		}
	}
}

func TestCollectives(t *testing.T) {
	for name, f := range fabrics(t, 5) {
		t.Run(name, func(t *testing.T) {
			sums := make([][]int64, 5)
			err := Run(f, func(ep Endpoint) error {
				c := NewCollective(ep, 100, 101)
				v := int64(ep.ID()) + 1 // 1..5
				sums[ep.ID()] = []int64{v, -v, 0}
				if err := c.AllReduceSum(sums[ep.ID()]); err != nil {
					return err
				}
				return c.AllReduceSum(nil)
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for n := 0; n < 5; n++ {
				if want := []int64{15, -15, 0}; !slices.Equal(sums[n], want) {
					t.Errorf("node %d sum = %v, want %v", n, sums[n], want)
				}
			}
			// A contribution of the wrong length fails the round on every
			// node: the coordinator rejects it and still answers the rest.
			errs := make([]error, 5)
			err = Run(f, func(ep Endpoint) error {
				v := make([]int64, 3)
				if ep.ID() == 2 {
					v = v[:2]
				}
				errs[ep.ID()] = NewCollective(ep, 100, 101).AllReduceSum(v)
				return nil
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for n, err := range errs {
				if err == nil {
					t.Errorf("node %d: wrong-length round succeeded", n)
				}
			}
		})
	}
}

func TestCollectiveManyRounds(t *testing.T) {
	f := NewInProc(4, 16)
	defer f.Close()
	err := Run(f, func(ep Endpoint) error {
		c := NewCollective(ep, 50, 51)
		for round := int64(0); round < 200; round++ {
			v := []int64{round}
			if err := c.AllReduceSum(v); err != nil {
				return err
			}
			if got := v[0]; got != round*4 {
				return fmt.Errorf("round %d: sum = %d, want %d", round, got, round*4)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunPropagatesErrorsAndPanics(t *testing.T) {
	f := NewInProc(3, 8)
	defer f.Close()
	err := Run(f, func(ep Endpoint) error {
		switch ep.ID() {
		case 1:
			return fmt.Errorf("node 1 failed")
		case 2:
			panic("node 2 exploded")
		}
		return nil
	})
	if err == nil {
		t.Fatal("Run swallowed failures")
	}
	msg := err.Error()
	for _, want := range []string{"node 1 failed", "panicked"} {
		if !contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestConcurrentSendersOneReceiver(t *testing.T) {
	for name, f := range fabrics(t, 4) {
		t.Run(name, func(t *testing.T) {
			const per = 100
			var wg sync.WaitGroup
			for s := 1; s < 4; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					ep := f.Endpoint(NodeID(s))
					for i := 0; i < per; i++ {
						if err := ep.Send(0, 2, []byte{byte(s)}); err != nil {
							t.Errorf("send: %v", err)
							return
						}
					}
				}(s)
			}
			counts := map[byte]int{}
			for i := 0; i < 3*per; i++ {
				msg, err := f.Endpoint(0).Recv(2)
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				counts[msg.Payload[0]]++
			}
			wg.Wait()
			want := map[byte]int{1: per, 2: per, 3: per}
			if !reflect.DeepEqual(counts, want) {
				t.Fatalf("counts = %v", counts)
			}
		})
	}
}

func TestMailboxBackpressure(t *testing.T) {
	// With a 1-message buffer, a second send must block until the
	// receiver drains the first.
	f := NewInProc(2, 1)
	defer f.Close()
	ep0, ep1 := f.Endpoint(0), f.Endpoint(1)
	if err := ep0.Send(1, 4, []byte{1}); err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() {
		sent <- ep0.Send(1, 4, []byte{2})
	}()
	select {
	case err := <-sent:
		t.Fatalf("second send completed without a drain: %v", err)
	case <-time.After(20 * time.Millisecond):
		// Blocked, as intended.
	}
	if _, err := ep1.Recv(4); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-sent:
		if err != nil {
			t.Fatalf("second send failed: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("second send still blocked after drain")
	}
}

func TestCloseUnblocksBlockedSender(t *testing.T) {
	f := NewInProc(2, 1)
	ep0 := f.Endpoint(0)
	if err := ep0.Send(1, 4, []byte{1}); err != nil {
		t.Fatal(err)
	}
	sent := make(chan error, 1)
	go func() {
		sent <- ep0.Send(1, 4, []byte{2})
	}()
	time.Sleep(10 * time.Millisecond)
	f.Close()
	select {
	case err := <-sent:
		if err == nil {
			t.Fatal("blocked send succeeded after close")
		}
	case <-time.After(time.Second):
		t.Fatal("blocked sender not released by Close")
	}
}
