package cluster

import "testing"

func BenchmarkInProcPingPong(b *testing.B) {
	f := NewInProc(2, 64)
	defer f.Close()
	ep0, ep1 := f.Endpoint(0), f.Endpoint(1)
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ep0.Send(1, 1, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := ep1.Recv(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCPPingPong(b *testing.B) {
	f, err := NewTCP(2, 64)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	ep0, ep1 := f.Endpoint(0), f.Endpoint(1)
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ep0.Send(1, 1, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := ep1.Recv(1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCollectiveAllReduce(b *testing.B) {
	const p = 8
	f := NewInProc(p, 64)
	defer f.Close()
	b.ResetTimer()
	err := Run(f, func(ep Endpoint) error {
		c := NewCollective(ep, 10, 11)
		for i := 0; i < b.N; i++ {
			if err := c.AllReduceSum([]int64{1}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}
