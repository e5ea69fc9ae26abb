package ingest

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"mssg/internal/cluster"
	"mssg/internal/storage/fsutil"
)

// Manifest is the durable placement record: the committed placement every
// router obeys, plus — while a migration is in flight — the pending
// placement it is moving toward. A migration first persists its target as
// Pending (durable intent, so a crashed coordinator can resume or abort),
// then, after copy + catch-up + verify succeed, rewrites the manifest
// with Committed = former Pending. Both writes go through the atomic
// temp-file + rename path, so routing state flips in exactly one step.
type Manifest struct {
	Committed Placement
	// Pending is the in-flight migration's target (epoch Committed+1),
	// or nil when the topology is quiescent.
	Pending *Placement
}

// Placement-manifest magics. placementMagic ("MSSGPL01", PR 7) has no
// epoch, no member subset, and no pending slot; manifestMagic
// ("MSSGPL02") adds all three. The encoder always emits v2; the decoder
// still reads v1, so pre-elasticity directories keep opening.
const (
	placementMagic = "MSSGPL01"
	manifestMagic  = "MSSGPL02"
)

// PlacementFile is the placement manifest's name under the database
// working directory.
const PlacementFile = "placement.mssg"

func appendPlacementBody(b []byte, p Placement) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(p.Policy)))
	b = append(b, p.Policy...)
	b = binary.LittleEndian.AppendUint32(b, uint32(p.Backends))
	b = binary.LittleEndian.AppendUint32(b, uint32(p.Replication))
	b = binary.LittleEndian.AppendUint64(b, p.Seed)
	b = binary.LittleEndian.AppendUint64(b, p.Epoch)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(p.Nodes)))
	for _, n := range p.Nodes {
		b = binary.LittleEndian.AppendUint32(b, uint32(n))
	}
	return b
}

// EncodeManifest serializes m in the v2 layout with a CRC32 trailer:
// each placement body is the length-prefixed policy name, backends,
// replication, seed, epoch and member list, and a flag byte says
// whether a pending placement follows the committed one.
func EncodeManifest(m Manifest) []byte {
	b := append([]byte(nil), manifestMagic...)
	b = appendPlacementBody(b, m.Committed)
	if m.Pending != nil {
		b = append(b, 1)
		b = appendPlacementBody(b, *m.Pending)
	} else {
		b = append(b, 0)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// EncodePlacement serializes a quiescent manifest holding only p.
func EncodePlacement(p Placement) []byte {
	return EncodeManifest(Manifest{Committed: p})
}

const maxPolicyName = 64

func validatePlacement(p Placement) error {
	if len(p.Policy) > maxPolicyName {
		return fmt.Errorf("ingest: placement policy name of %d bytes exceeds %d", len(p.Policy), maxPolicyName)
	}
	if p.Backends < 1 || p.Backends > 1<<20 {
		return fmt.Errorf("ingest: placement declares %d backends", p.Backends)
	}
	if p.Nodes != nil {
		prev := cluster.NodeID(-1)
		for _, n := range p.Nodes {
			if n <= prev {
				return fmt.Errorf("ingest: placement member list is not strictly ascending at node %d", n)
			}
			if int(n) >= p.Backends {
				return fmt.Errorf("ingest: placement member %d outside [0, %d)", n, p.Backends)
			}
			prev = n
		}
	}
	if p.Replication < 1 || p.Replication > p.MemberCount() {
		return fmt.Errorf("ingest: placement declares replication %d over %d members", p.Replication, p.MemberCount())
	}
	return nil
}

// decodePlacementBody consumes one v2 placement body from b, returning
// the remainder.
func decodePlacementBody(b []byte) (Placement, []byte, error) {
	var p Placement
	if len(b) < 2 {
		return p, nil, fmt.Errorf("ingest: placement body truncated before name length")
	}
	nameLen := int(binary.LittleEndian.Uint16(b))
	b = b[2:]
	if nameLen > maxPolicyName || len(b) < nameLen+4+4+8+8+4 {
		return p, nil, fmt.Errorf("ingest: placement body inconsistent with name length %d", nameLen)
	}
	p.Policy = string(b[:nameLen])
	b = b[nameLen:]
	p.Backends = int(binary.LittleEndian.Uint32(b))
	p.Replication = int(binary.LittleEndian.Uint32(b[4:]))
	p.Seed = binary.LittleEndian.Uint64(b[8:])
	p.Epoch = binary.LittleEndian.Uint64(b[16:])
	nodeCount := int(binary.LittleEndian.Uint32(b[24:]))
	b = b[28:]
	if nodeCount > 0 {
		if nodeCount > 1<<20 || len(b) < 4*nodeCount {
			return p, nil, fmt.Errorf("ingest: placement body truncated inside %d-node member list", nodeCount)
		}
		p.Nodes = make([]cluster.NodeID, nodeCount)
		for i := range p.Nodes {
			p.Nodes[i] = cluster.NodeID(binary.LittleEndian.Uint32(b[4*i:]))
		}
		b = b[4*nodeCount:]
	}
	if err := validatePlacement(p); err != nil {
		return p, nil, err
	}
	return p, b, nil
}

// DecodeManifest parses and validates an encoded manifest in either
// layout. It must never panic on arbitrary input (fuzzed) and rejects
// anything a valid encoder of either layout cannot produce.
func DecodeManifest(b []byte) (Manifest, error) {
	var m Manifest
	if len(b) < len(placementMagic)+2 {
		return m, fmt.Errorf("ingest: placement of %d bytes is shorter than its header", len(b))
	}
	magic := string(b[:len(placementMagic)])
	if magic != placementMagic && magic != manifestMagic {
		return m, fmt.Errorf("ingest: bad placement magic %q", magic)
	}
	if len(b) < 4 {
		return m, fmt.Errorf("ingest: placement too short for its checksum")
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return m, fmt.Errorf("ingest: placement checksum mismatch")
	}
	rest := body[len(placementMagic):]

	if magic == placementMagic {
		var p Placement
		if len(rest) < 2 {
			return m, fmt.Errorf("ingest: placement body truncated before name length")
		}
		nameLen := int(binary.LittleEndian.Uint16(rest))
		rest = rest[2:]
		if nameLen > maxPolicyName || len(rest) != nameLen+4+4+8 {
			return m, fmt.Errorf("ingest: placement body of %d bytes inconsistent with name length %d", len(rest), nameLen)
		}
		p.Policy = string(rest[:nameLen])
		rest = rest[nameLen:]
		p.Backends = int(binary.LittleEndian.Uint32(rest))
		p.Replication = int(binary.LittleEndian.Uint32(rest[4:]))
		p.Seed = binary.LittleEndian.Uint64(rest[8:])
		if err := validatePlacement(p); err != nil {
			return m, err
		}
		m.Committed = p
		return m, nil
	}

	committed, rest, err := decodePlacementBody(rest)
	if err != nil {
		return m, err
	}
	if len(rest) < 1 {
		return m, fmt.Errorf("ingest: manifest truncated before pending flag")
	}
	hasPending := rest[0]
	rest = rest[1:]
	switch hasPending {
	case 0:
		if len(rest) != 0 {
			return m, fmt.Errorf("ingest: %d trailing bytes after quiescent manifest", len(rest))
		}
	case 1:
		pending, tail, err := decodePlacementBody(rest)
		if err != nil {
			return m, fmt.Errorf("ingest: pending placement: %w", err)
		}
		if len(tail) != 0 {
			return m, fmt.Errorf("ingest: %d trailing bytes after pending placement", len(tail))
		}
		if pending.Epoch != committed.Epoch+1 {
			return m, fmt.Errorf("ingest: pending epoch %d is not committed epoch %d + 1", pending.Epoch, committed.Epoch)
		}
		if pending.Policy != committed.Policy || pending.Seed != committed.Seed {
			return m, fmt.Errorf("ingest: pending placement changes policy or seed")
		}
		m.Pending = &pending
	default:
		return m, fmt.Errorf("ingest: bad pending flag %d", hasPending)
	}
	m.Committed = committed
	return m, nil
}

// DecodePlacement parses an encoded manifest and returns its committed
// placement. It must never panic on arbitrary input.
func DecodePlacement(b []byte) (Placement, error) {
	m, err := DecodeManifest(b)
	return m.Committed, err
}

// WriteManifestFile persists m under dir via atomic replacement (temp
// file + fsync + rename + directory fsync), so a crashed writer leaves
// either the old manifest or the new one — never a torn mix. This is the
// one-step routing flip: a migration commit is exactly one manifest
// rename.
func WriteManifestFile(dir string, m Manifest) error {
	return fsutil.WriteFileAtomic(nil, filepath.Join(dir, PlacementFile), EncodeManifest(m), 0o644)
}

// WritePlacementFile persists a quiescent manifest holding only p.
func WritePlacementFile(dir string, p Placement) error {
	return WriteManifestFile(dir, Manifest{Committed: p})
}

// ReadManifestFile loads dir's placement manifest. ok is false when no
// manifest exists (a pre-replication directory); a present-but-corrupt
// manifest is an error, not a silent fallback, because guessing the
// wrong placement silently misroutes every query.
func ReadManifestFile(dir string) (m Manifest, ok bool, err error) {
	b, err := os.ReadFile(filepath.Join(dir, PlacementFile))
	if os.IsNotExist(err) {
		return Manifest{}, false, nil
	}
	if err != nil {
		return Manifest{}, false, err
	}
	m, err = DecodeManifest(b)
	if err != nil {
		return Manifest{}, false, err
	}
	return m, true, nil
}

// ReadPlacementFile loads dir's committed placement; see ReadManifestFile
// for the ok/error contract.
func ReadPlacementFile(dir string) (p Placement, ok bool, err error) {
	m, ok, err := ReadManifestFile(dir)
	return m.Committed, ok, err
}
