package compress

import (
	"bytes"
	"testing"
)

// FuzzCodecRoundTrip: encode→decode must reproduce any word-aligned
// input exactly.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(encWords(1, 2, 3))
	f.Add(encWords(^uint64(0), 0, 1<<63, 7))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := data[:len(data)/8*8] // word-align
		payload := AppendEncoded(nil, src)
		dst := make([]byte, len(src))
		if err := Decode(dst, payload); err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if !bytes.Equal(dst, src) {
			t.Fatalf("round trip mismatch: src % x dst % x", src, dst)
		}
	})
}

// FuzzDecodeArbitrary: the decoder must never panic or over-read on
// arbitrary payload bytes, for any destination size.
func FuzzDecodeArbitrary(f *testing.F) {
	f.Add([]byte{}, uint16(8))
	f.Add([]byte{0x80, 0xff, 0x01}, uint16(16))
	f.Add(AppendEncoded(nil, encWords(5, 6, 7)), uint16(24))
	f.Fuzz(func(t *testing.T, payload []byte, dstLen uint16) {
		dst := make([]byte, int(dstLen)%4096)
		_ = Decode(dst, payload) // must not panic
	})
}
