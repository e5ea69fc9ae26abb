package ingest

import (
	"bytes"
	"reflect"
	"testing"

	"mssg/internal/cluster"
)

// FuzzPlacementDecode: the manifest decoder faces whatever bytes happen
// to sit in placement.mssg, so it must never panic, must reject anything
// a valid encoder cannot produce, and — when it does accept — must
// round-trip: an MSSGPL02 input re-encodes to the identical bytes, and
// an MSSGPL01 input's decoded value survives encode then decode (the
// encoder writes only v2). The corpus seeds both layouts: pre-epoch
// MSSGPL01 manifests (PR 7 directories must keep decoding, reporting
// epoch 0) and MSSGPL02 manifests with member subsets and a pending
// placement.
func FuzzPlacementDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(placementMagic))
	f.Add([]byte(manifestMagic))
	// v1 layout: quiescent epoch-0 placements.
	f.Add(encodeV1("rendezvous", 8, 2, 1))
	f.Add(encodeV1("vertex-mod", 1, 1, DefaultPlacementSeed))
	long := encodeV1("rendezvous", 1<<19, 6, ^uint64(0))
	f.Add(long)
	f.Add(append(long, 0, 1, 2))
	// v2 layout: epoch 0, advanced epoch, member subset, in-flight
	// migration.
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
		enc := EncodeManifest(m)
		if string(data[:len(manifestMagic)]) == manifestMagic {
			if !bytes.Equal(enc, data) {
				t.Fatalf("accepted v2 input is not canonical: %x vs %x", data, enc)
			}
			return
		}
		again, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("re-encoded v1 input does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("v1 input changed through encode: %+v vs %+v", again, m)
		}
	})
}
