package compress

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func encWords(words ...uint64) []byte {
	buf := make([]byte, 8*len(words))
	for i, w := range words {
		le.PutUint64(buf[i*8:], w)
	}
	return buf
}

func TestCodecRoundTrip(t *testing.T) {
	cases := [][]byte{
		nil,
		encWords(0),
		encWords(1, 2, 3, 4, 5),
		encWords(100, 101, 103, 200, 7, 0, 0, 0),
		encWords(^uint64(0), 0, ^uint64(0)>>1, 1<<63),
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		words := make([]uint64, rng.Intn(64))
		for j := range words {
			words[j] = rng.Uint64() >> uint(rng.Intn(64))
		}
		cases = append(cases, encWords(words...))
	}
	for _, src := range cases {
		payload := AppendEncoded(nil, src)
		dst := make([]byte, len(src))
		if err := Decode(dst, payload); err != nil {
			t.Fatalf("Decode(%d words): %v", len(src)/8, err)
		}
		if !bytes.Equal(dst, src) {
			t.Fatalf("round trip mismatch for %x", src)
		}
	}
}

func TestCodecCompressesSortedRuns(t *testing.T) {
	// Ascending ids with small gaps — the adjacency common case — must
	// shrink substantially.
	words := make([]uint64, 512)
	for i := range words {
		words[i] = uint64(1000 + 3*i)
	}
	src := encWords(words...)
	payload := AppendEncoded(nil, src)
	if len(payload) > len(src)/3 {
		t.Fatalf("sorted run compressed to %d/%d bytes — want at least 3x", len(payload), len(src))
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	dst := make([]byte, 16)
	for _, payload := range [][]byte{
		{},                 // truncated: zero varints for two words
		{0x80},             // truncated varint
		{0x01},             // one word, second missing
		{0x01, 0x01, 0x01}, // trailing byte
		append(bytes.Repeat([]byte{0xff}, 10), 0x01, 0x01), // over-long varint
	} {
		if err := Decode(dst, payload); !errors.Is(err, ErrMalformed) {
			t.Fatalf("Decode(% x) = %v, want ErrMalformed", payload, err)
		}
	}
	if err := Decode(make([]byte, 7), nil); !errors.Is(err, ErrMalformed) {
		t.Fatal("non-word destination accepted")
	}
}
