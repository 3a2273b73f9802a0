package autovalidate

import (
	"io"

	"autovalidate/internal/cluster"
	"autovalidate/internal/index"
)

// Replicated-cluster surface: one leader ingests the lake and ships
// state — full snapshots (index + stream registry as one framed,
// checksummed artifact) plus the retained chain of ingest deltas as a
// replication log — to any number of follower replicas, which serve
// /infer, /validate, and stream checks read-only and proxy writes back
// to the leader. A Gateway consistent-hashes stream traffic across the
// member list (pinning each stream's monitor history to one replica)
// and round-robins stateless validation with health-checked failover.
// Followers are eventually consistent, bounded by the delta-poll
// interval; see the README's Deployment section for the topology.
type (
	// ClusterLeader layers /replication/{snapshot,deltas,registry} over
	// a Service built with a DeltaLog.
	ClusterLeader = cluster.Leader
	// ClusterFollower drives one replica: snapshot bootstrap, then
	// poll-and-apply of the leader's delta chain.
	ClusterFollower = cluster.Follower
	// ClusterFollowerConfig configures a follower's catch-up loop.
	ClusterFollowerConfig = cluster.FollowerConfig
	// ClusterFollowerStatus snapshots a follower's replication progress.
	ClusterFollowerStatus = cluster.FollowerStatus
	// Gateway routes traffic across cluster members: consistent-hash
	// for streams, round-robin with failover for everything else.
	Gateway = cluster.Gateway
	// GatewayConfig configures a Gateway.
	GatewayConfig = cluster.GatewayConfig
	// GatewayMemberInfo is one member's routing state.
	GatewayMemberInfo = cluster.MemberInfo
	// IndexDeltaLog retains applied ingest deltas as the replication
	// log a ClusterLeader serves from.
	IndexDeltaLog = index.DeltaLog
)

// NewClusterLeader wraps a service for replication; the service must
// have been built with ServiceConfig.DeltaLog set.
func NewClusterLeader(svc *Service) (*ClusterLeader, error) { return cluster.NewLeader(svc) }

// NewClusterFollower builds (without starting) a follower catch-up
// loop; call Run, or CatchUp per round.
func NewClusterFollower(cfg ClusterFollowerConfig) (*ClusterFollower, error) {
	return cluster.NewFollower(cfg)
}

// NewGateway builds a cluster gateway over a static member list.
func NewGateway(cfg GatewayConfig) (*Gateway, error) { return cluster.NewGateway(cfg) }

// NewIndexDeltaLog returns a delta retention log keeping at most retain
// deltas (<= 0 = the default window of 64).
func NewIndexDeltaLog(retain int) *IndexDeltaLog { return index.NewDeltaLog(retain) }

// NewEmptyIndex returns an empty index — the placeholder a follower
// serves behind a 503 /readyz until its first snapshot installs.
func NewEmptyIndex() *Index { return index.New() }

// WriteClusterSnapshot encodes a service's current index and stream
// registry as one framed snapshot artifact (what GET
// /replication/snapshot serves).
func WriteClusterSnapshot(w io.Writer, svc *Service) error { return cluster.WriteSnapshot(w, svc) }

// ReadClusterSnapshot decodes a snapshot artifact: the index, the
// registry, and the leader's registry epoch at snapshot time. maxBytes
// bounds each section's allocation.
func ReadClusterSnapshot(r io.Reader, maxBytes int64) (*Index, *StreamRegistry, uint64, error) {
	return cluster.ReadSnapshot(r, maxBytes)
}
