// Package cluster replicates a validation service across nodes: a
// leader ships full snapshots (index + stream registry, one framed
// artifact) and the retained chain of ingest deltas as a replication
// log; followers bootstrap from a snapshot and then poll and apply
// deltas through the serving layer's copy-on-write swap, so in-flight
// requests never observe a half-applied index; and a gateway
// consistent-hashes stream traffic across the member list (pinning each
// stream's monitor history to one node) while round-robining stateless
// validation traffic with health-checked failover.
//
// The wire formats reuse the persistence formats wholesale — an index
// snapshot is the same bytes Save writes, a shipped delta the same
// bytes SaveDelta writes, the registry its AVREG1 bytes — each carried
// as one section of an internal/frame artifact with a JSON header, so
// truncation or bit rot in transit is detected per artifact, exactly as
// on disk. The generation counters that make on-disk delta chains
// compact deterministically are what make the replication log safe: a
// follower can only apply the delta that extends its exact generation,
// so a missed or duplicated fetch is an error, never a silent
// double-count.
package cluster

import (
	"encoding/json"
	"fmt"
	"io"

	"autovalidate/internal/frame"
)

// Framed-artifact magics. Each replication payload leads with one, so a
// follower can never mistake a delta feed for a snapshot. AVDLT2's
// optional trailing registry section is not in AVDLT1, so a leader and a
// follower of different versions fail loudly instead of dropping
// registry changes.
const (
	magicSnapshot = "AVSNAP1\n"
	magicDeltas   = "AVDLT2\n"
)

// maxHeader bounds the JSON header section of any framed artifact.
const maxHeader = 1 << 20

// snapshotHeader describes a snapshot artifact: the generation of the
// enclosed index, the leader's registry epoch at encode time, which
// seeds the follower's registry-change detection, and the id of the
// leader process that served it ("" from WriteSnapshot), which the
// follower sends back on every delta poll.
type snapshotHeader struct {
	Generation    uint64 `json:"generation"`
	RegistryEpoch uint64 `json:"registry_epoch"`
	Leader        string `json:"leader"`
}

// deltasHeader describes a delta-chain artifact: Count delta sections,
// then, when Registry is set, the leader's registry as of RegistryEpoch.
type deltasHeader struct {
	From             uint64 `json:"from"`
	Count            int    `json:"count"`
	LeaderGeneration uint64 `json:"leader_generation"`
	RegistryEpoch    uint64 `json:"registry_epoch"`
	Registry         bool   `json:"registry,omitempty"`
}

// writeArtifact writes magic, the JSON header and one section per
// payload.
func writeArtifact(w io.Writer, magic string, header any, payloads ...[]byte) error {
	head, err := json.Marshal(header)
	if err != nil {
		return fmt.Errorf("cluster: encoding %q header: %w", magic, err)
	}
	if err := frame.Write(w, magic, head, payloads...); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	return nil
}

// readArtifact consumes and verifies the magic and decodes the JSON
// header into dst; the caller reads the sections off the returned
// reader, each bounded by its fetch cap.
func readArtifact(r io.Reader, magic string, dst any) (*frame.Reader, error) {
	fr, err := frame.ReadMagic(r, magic)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	head, err := fr.ReadHeader(maxHeader)
	if err != nil {
		return nil, fmt.Errorf("cluster: %q artifact: %w", magic, err)
	}
	if err := json.Unmarshal(head, dst); err != nil {
		return nil, fmt.Errorf("cluster: %q artifact: undecodable header: %w", magic, err)
	}
	return fr, nil
}
