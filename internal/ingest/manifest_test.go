package ingest

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mssg/internal/cluster"
	"mssg/internal/graph"
)

// encodeV1 reproduces the PR 7 codec byte-for-byte, independent of the
// current encoder, so compatibility is tested against the old wire
// format rather than against ourselves.
func encodeV1(policy string, backends, replication int, seed uint64) []byte {
	b := append([]byte(nil), placementMagic...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(policy)))
	b = append(b, policy...)
	b = binary.LittleEndian.AppendUint32(b, uint32(backends))
	b = binary.LittleEndian.AppendUint32(b, uint32(replication))
	b = binary.LittleEndian.AppendUint64(b, seed)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestManifestV1Compat: a pre-epoch (PR 7, MSSGPL01) manifest must keep
// decoding and report epoch 0 with a nil member subset and no pending
// placement.
func TestManifestV1Compat(t *testing.T) {
	old := encodeV1("rendezvous", 8, 3, 0xfeed)
	m, err := DecodeManifest(old)
	if err != nil {
		t.Fatalf("DecodeManifest(v1): %v", err)
	}
	want := Placement{Policy: "rendezvous", Backends: 8, Replication: 3, Seed: 0xfeed}
	if !placementEqual(m.Committed, want) {
		t.Fatalf("v1 decoded to %+v, want %+v", m.Committed, want)
	}
	if m.Committed.Epoch != 0 || m.Committed.Nodes != nil || m.Pending != nil {
		t.Fatalf("v1 manifest must be epoch 0, full membership, quiescent: %+v", m)
	}
}

func TestManifestV2RoundTrip(t *testing.T) {
	cases := []Manifest{
		{Committed: Placement{Policy: "rendezvous", Backends: 8, Replication: 2, Seed: 1, Epoch: 4}},
		{Committed: Placement{Policy: "rendezvous", Backends: 9, Replication: 2, Seed: 1, Epoch: 1,
			Nodes: []cluster.NodeID{0, 2, 3, 8}}},
		{
			Committed: Placement{Policy: "rendezvous", Backends: 8, Replication: 2, Seed: 9, Epoch: 0,
				Nodes: []cluster.NodeID{0, 1, 2, 3, 4, 5, 6, 7}},
			Pending: &Placement{Policy: "rendezvous", Backends: 9, Replication: 2, Seed: 9, Epoch: 1,
				Nodes: []cluster.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8}},
		},
	}
	for i, m := range cases {
		enc := EncodeManifest(m)
		got, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !placementEqual(got.Committed, m.Committed) {
			t.Fatalf("case %d: committed %+v, want %+v", i, got.Committed, m.Committed)
		}
		if (got.Pending == nil) != (m.Pending == nil) {
			t.Fatalf("case %d: pending presence mismatch", i)
		}
		if m.Pending != nil && !placementEqual(*got.Pending, *m.Pending) {
			t.Fatalf("case %d: pending %+v, want %+v", i, *got.Pending, *m.Pending)
		}
	}
}

func TestManifestRejects(t *testing.T) {
	good := Placement{Policy: "rendezvous", Backends: 8, Replication: 2, Seed: 1, Epoch: 2}
	cases := map[string][]byte{
		"non-successor pending epoch": EncodeManifest(Manifest{
			Committed: good,
			Pending:   &Placement{Policy: "rendezvous", Backends: 8, Replication: 2, Seed: 1, Epoch: 5},
		}),
		"pending seed change": EncodeManifest(Manifest{
			Committed: good,
			Pending:   &Placement{Policy: "rendezvous", Backends: 8, Replication: 2, Seed: 2, Epoch: 3},
		}),
		"unsorted member list": EncodePlacement(Placement{
			Policy: "rendezvous", Backends: 8, Replication: 2, Seed: 1, Epoch: 1,
			Nodes: []cluster.NodeID{3, 1}}),
		"member outside backends": EncodePlacement(Placement{
			Policy: "rendezvous", Backends: 4, Replication: 2, Seed: 1, Epoch: 1,
			Nodes: []cluster.NodeID{0, 9}}),
		"replication over members": EncodePlacement(Placement{
			Policy: "rendezvous", Backends: 8, Replication: 3, Seed: 1, Epoch: 1,
			Nodes: []cluster.NodeID{0, 1}}),
	}
	// Note: EncodeManifest happily emits invalid values; the decoder is
	// the validation gate, mirroring how the fuzzer exercises it.
	for name, enc := range cases {
		if _, err := DecodeManifest(enc); err == nil {
			t.Errorf("%s: decoder accepted invalid manifest", name)
		}
	}
}

// TestRendezvousSubsetMovement: placements over explicit member subsets
// keep HRW's minimal-movement property — adding a member only pulls
// shards onto the new node, and every vertex's replica set stays within
// the member list.
func TestRendezvousSubsetMovement(t *testing.T) {
	oldP := Placement{Policy: "rendezvous", Backends: 9, Replication: 2, Seed: 42,
		Nodes: []cluster.NodeID{0, 1, 2, 3}}
	newP := oldP
	newP.Epoch = 1
	newP.Nodes = []cluster.NodeID{0, 1, 2, 3, 8}

	op, err := oldP.NewPolicy()
	if err != nil {
		t.Fatal(err)
	}
	np, err := newP.NewPolicy()
	if err != nil {
		t.Fatal(err)
	}
	oldRP, newRP := op.(ReplicaPolicy), np.(ReplicaPolicy)
	moved := 0
	const vertices = 20000
	for v := 0; v < vertices; v++ {
		ov := oldRP.Replicas(graph.VertexID(v))
		nv := newRP.Replicas(graph.VertexID(v))
		if len(ov) != 2 || len(nv) != 2 {
			t.Fatalf("v%d: replica sets %v -> %v, want 2-way", v, ov, nv)
		}
		for _, n := range nv {
			if !newP.HasMember(n) {
				t.Fatalf("v%d placed on non-member %d", v, n)
			}
			in := false
			for _, o := range ov {
				if o == n {
					in = true
				}
			}
			if !in {
				moved++
				if n != 8 {
					t.Fatalf("v%d moved to %d, but only the joining node 8 may gain shards", v, n)
				}
			}
		}
	}
	// Node 8 should gain roughly 2*vertices/5 replicas and nothing else
	// should move.
	if moved == 0 || moved > vertices {
		t.Fatalf("implausible movement %d for %d vertices", moved, vertices)
	}
}

func TestPlacementHolderLifecycle(t *testing.T) {
	dir := t.TempDir()
	base := Placement{Policy: "rendezvous", Backends: 4, Replication: 2, Seed: 5}
	if err := WritePlacementFile(dir, base); err != nil {
		t.Fatal(err)
	}
	h, ok, err := OpenPlacementHolder(dir)
	if err != nil || !ok {
		t.Fatalf("OpenPlacementHolder: ok=%v err=%v", ok, err)
	}
	if h.Epoch() != 0 {
		t.Fatalf("fresh holder epoch %d, want 0", h.Epoch())
	}

	target, err := h.JoinTarget(4)
	if err != nil {
		t.Fatal(err)
	}
	if target.Epoch != 1 || target.Backends != 5 || !target.HasMember(4) {
		t.Fatalf("bad join target %+v", target)
	}
	if err := h.BeginMigration(target); err != nil {
		t.Fatal(err)
	}
	// Durable intent: a fresh holder sees the pending placement.
	h2, ok, err := OpenPlacementHolder(dir)
	if err != nil || !ok {
		t.Fatalf("reopen: ok=%v err=%v", ok, err)
	}
	if h2.Manifest().Pending == nil || h2.Manifest().Pending.Epoch != 1 {
		t.Fatalf("pending intent not durable: %+v", h2.Manifest())
	}
	// Begin again with the same target is a resume, a different target is
	// an error.
	if err := h.BeginMigration(target); err != nil {
		t.Fatalf("idempotent begin: %v", err)
	}
	other := target
	other.Nodes = []cluster.NodeID{0, 1, 2, 4}
	if err := h.BeginMigration(other); err == nil {
		t.Fatal("begin with a different target must fail while one is pending")
	}

	// Routing still obeys the committed epoch until commit.
	if h.Policy().(ReplicaPolicy).ReplicationFactor() != 2 || h.Epoch() != 0 {
		t.Fatal("routing changed before commit")
	}
	committed, err := h.CommitMigration()
	if err != nil {
		t.Fatal(err)
	}
	if committed.Epoch != 1 || h.Epoch() != 1 || h.Manifest().Pending != nil {
		t.Fatalf("commit left %+v", h.Manifest())
	}

	// A stale reader reloads to the new epoch; history stays monotonic.
	changed, err := h2.Reload()
	if err != nil || !changed {
		t.Fatalf("reload: changed=%v err=%v", changed, err)
	}
	if h2.Epoch() != 1 {
		t.Fatalf("reloaded epoch %d, want 1", h2.Epoch())
	}
	for _, h := range []*PlacementHolder{h, h2} {
		hist := h.History()
		for i := 1; i < len(hist); i++ {
			if hist[i] <= hist[i-1] {
				t.Fatalf("epoch history not monotonic: %v", hist)
			}
		}
	}

	// Abort: drain pending placement is dropped, epoch 1 stays
	// authoritative.
	dt, err := h.DrainTarget(4)
	if err != nil {
		t.Fatal(err)
	}
	if dt.Epoch != 2 || dt.HasMember(4) {
		t.Fatalf("bad drain target %+v", dt)
	}
	if err := h.BeginMigration(dt); err != nil {
		t.Fatal(err)
	}
	if err := h.AbortMigration(); err != nil {
		t.Fatal(err)
	}
	if h.Epoch() != 1 || h.Manifest().Pending != nil {
		t.Fatalf("abort left %+v", h.Manifest())
	}
	m, _, err := ReadManifestFile(dir)
	if err != nil || m.Pending != nil || m.Committed.Epoch != 1 {
		t.Fatalf("abort not durable: %+v err=%v", m, err)
	}
	q, err := os.ReadFile(filepath.Join(dir, QuarantineFile))
	if err != nil {
		t.Fatalf("abort wrote no quarantine record: %v", err)
	}
	if !strings.Contains(string(q), "epoch 2 aborted") || !strings.Contains(string(q), "epoch 1 kept") {
		t.Fatalf("quarantine record %q does not name the aborted/kept epochs", q)
	}
}
