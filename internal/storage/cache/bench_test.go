package cache

import "testing"

// BenchmarkGetHit measures a Get and Release of a resident block, on one
// goroutine and from b.RunParallel's goroutines sharing one cache.
func BenchmarkGetHit(b *testing.B) {
	const blocks = 16
	c := New(64 * 4096)
	if err := c.AttachSpace(0, newMemStore(4096)); err != nil {
		b.Fatal(err)
	}
	access := func(block int64) error {
		h, err := c.Get(0, block)
		if err != nil {
			return err
		}
		return h.Release()
	}
	for i := int64(0); i < blocks; i++ {
		if err := access(i); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := access(int64(i % blocks)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				if err := access(int64(i % blocks)); err != nil {
					b.Error(err)
					return
				}
			}
		})
	})
}
