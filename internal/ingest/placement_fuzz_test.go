package ingest

import (
	"bytes"
	"testing"

	"mssg/internal/cluster"
)

// FuzzPlacementDecode: the manifest decoder faces whatever bytes happen
// to sit in placement.mssg, so it must never panic, must reject anything
// a valid encoder cannot produce, and — when it does accept — must
// round-trip: an accepted input re-encodes to the identical bytes. The
// corpus seeds the smallest and a very wide placement, that wide one
// with trailing bytes, a flipped checksum bit and cut in half, and
// manifests at epoch 0 and later, with member subsets and with a
// pending placement.
func FuzzPlacementDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(manifestMagic))
	f.Add(EncodePlacement(Placement{Policy: "vertex-mod", Backends: 1, Replication: 1, Seed: DefaultPlacementSeed}))
	long := EncodePlacement(Placement{Policy: "rendezvous", Backends: 1 << 19, Replication: 6, Seed: ^uint64(0)})
	f.Add(long)
	f.Add(append(bytes.Clone(long), 0, 1, 2))
	badSum := bytes.Clone(long)
	badSum[len(badSum)-1] ^= 1
	f.Add(badSum)
	f.Add(long[:len(long)/2])
	// Epoch 0, advanced epoch, member subset, in-flight migration.
	f.Add(EncodePlacement(Placement{Policy: "rendezvous", Backends: 8, Replication: 2, Seed: 1}))
	f.Add(EncodePlacement(Placement{Policy: "rendezvous", Backends: 8, Replication: 2, Seed: 1, Epoch: 3}))
	f.Add(EncodePlacement(Placement{
		Policy: "rendezvous", Backends: 9, Replication: 2, Seed: 1, Epoch: 5,
		Nodes: []cluster.NodeID{0, 1, 3, 4, 8},
	}))
	f.Add(EncodeManifest(Manifest{
		Committed: Placement{Policy: "rendezvous", Backends: 8, Replication: 2, Seed: 7, Epoch: 2},
		Pending: &Placement{Policy: "rendezvous", Backends: 9, Replication: 2, Seed: 7, Epoch: 3,
			Nodes: []cluster.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8}},
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		check := func(p Placement) {
			if p.Backends < 1 || p.Replication < 1 || p.Replication > p.MemberCount() || len(p.Policy) > 64 {
				t.Fatalf("decoder accepted invalid placement %+v", p)
			}
			for i, n := range p.Nodes {
				if int(n) >= p.Backends || (i > 0 && n <= p.Nodes[i-1]) {
					t.Fatalf("decoder accepted invalid member list %v", p.Nodes)
				}
			}
		}
		check(m.Committed)
		if m.Pending != nil {
			check(*m.Pending)
			if m.Pending.Epoch != m.Committed.Epoch+1 {
				t.Fatalf("decoder accepted non-successor pending epoch %d after %d", m.Pending.Epoch, m.Committed.Epoch)
			}
		}
		if enc := EncodeManifest(m); !bytes.Equal(enc, data) {
			t.Fatalf("accepted v2 input is not canonical: %x vs %x", data, enc)
		}
	})
}
