package cluster

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"autovalidate/internal/index"
	"autovalidate/internal/obs"
	"autovalidate/internal/registry"
	"autovalidate/internal/service"
)

const (
	// fetchTimeout bounds one replication fetch; snapshots can be large.
	fetchTimeout = 60 * time.Second
	// maxFetchBytes bounds any single replication artifact section.
	maxFetchBytes = 1 << 30
)

// FollowerConfig configures a catch-up loop.
type FollowerConfig struct {
	// Leader is the leader's base URL (e.g. http://leader:8077).
	// Required.
	Leader *url.URL
	// Service is the local replica the loop feeds. Required; build it
	// with StartUnready (so /readyz gates on the first snapshot) and
	// WriteProxy pointed at the same leader.
	Service *service.Server
	// PollInterval is the delta-poll period (0 = 2s). It bounds the
	// follower's staleness: a read served here can lag the leader by at
	// most one interval plus one apply.
	PollInterval time.Duration
	// Logger receives catch-up progress and failures (nil = discard).
	Logger *slog.Logger
}

// FollowerStatus is a snapshot of the loop's progress.
type FollowerStatus struct {
	// Bootstrapped reports whether a snapshot has been installed.
	Bootstrapped bool `json:"bootstrapped"`
	// Generation is the local index generation.
	Generation uint64 `json:"generation"`
	// RegistryEpoch is the leader registry epoch last installed.
	RegistryEpoch uint64 `json:"registry_epoch"`
	// Snapshots and Deltas count the service's installs since it
	// started (its /metrics counters); a Snapshots value above 1 means
	// the follower fell behind the leader's delta retention window, or
	// its leader restarted, at least once.
	Snapshots int `json:"snapshots"`
	Deltas    int `json:"deltas"`
	// LastError is the most recent catch-up failure ("" when the last
	// round succeeded).
	LastError string `json:"last_error,omitempty"`
}

// Follower drives one replica: bootstrap from the leader's snapshot,
// then poll for deltas and apply them through the service's
// copy-on-write swap. Safe for concurrent use, though normally one Run
// loop owns it.
type Follower struct {
	svc      *service.Server
	leader   *url.URL
	client   *http.Client
	interval time.Duration
	log      *slog.Logger

	// mu guards the protocol state a poll sends back — the registry
	// epoch and the id of the leader the last snapshot came from ("" until
	// one is installed) — and the last round's error. The service counts
	// what was applied.
	mu            sync.Mutex
	registryEpoch uint64
	leaderID      string
	lastErr       string
}

// NewFollower validates the config and returns a follower (not yet
// started; call Run, or CatchUp per round for deterministic tests).
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Leader == nil {
		return nil, fmt.Errorf("cluster: follower requires a leader URL")
	}
	if cfg.Service == nil {
		return nil, fmt.Errorf("cluster: follower requires a service")
	}
	interval := cfg.PollInterval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	log := cfg.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	return &Follower{
		svc:      cfg.Service,
		leader:   cfg.Leader,
		client:   &http.Client{Timeout: fetchTimeout},
		interval: interval,
		log:      log,
	}, nil
}

// Status snapshots the loop's progress. The install counts are the
// service's, the ones its /metrics renders.
func (f *Follower) Status() FollowerStatus {
	snapshots, deltas := f.svc.ReplicationCounts()
	f.mu.Lock()
	defer f.mu.Unlock()
	return FollowerStatus{
		Bootstrapped:  snapshots > 0,
		Generation:    f.svc.Generation(),
		RegistryEpoch: f.registryEpoch,
		Snapshots:     int(snapshots),
		Deltas:        int(deltas),
		LastError:     f.lastErr,
	}
}

// Run polls the leader until ctx is done, bootstrapping again from a
// snapshot whenever the leader answers that its delta chain cannot
// extend this replica — the window moved past it, or the leader
// restarted. Failures are recorded in Status and retried next interval,
// so a follower outliving a leader restart needs no operator action.
func (f *Follower) Run(ctx context.Context) {
	ticker := time.NewTicker(f.interval)
	defer ticker.Stop()
	for {
		err := f.CatchUp(ctx)
		f.mu.Lock()
		if err != nil {
			f.lastErr = err.Error()
		} else {
			f.lastErr = ""
		}
		f.mu.Unlock()
		if err != nil && ctx.Err() == nil {
			f.log.Warn("catch-up round failed", slog.String("error", err.Error()))
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// CatchUp runs one replication round: bootstrap from a snapshot if none
// is installed yet, otherwise one delta poll that sends the local
// generation, the registry epoch and the leader id this replica holds.
// The leader answers with the deltas the replica is missing and, when
// the epoch moved, its registry, both applied here in one
// service.ApplyPoll; or with 410 Gone, and the round bootstraps again.
// Returns nil when the follower is (momentarily) caught up.
func (f *Follower) CatchUp(ctx context.Context) error {
	f.mu.Lock()
	epoch, leader := f.registryEpoch, f.leaderID
	f.mu.Unlock()
	if leader == "" {
		return f.Bootstrap(ctx)
	}

	query := url.Values{
		"from":   {strconv.FormatUint(f.svc.Generation(), 10)},
		"epoch":  {strconv.FormatUint(epoch, 10)},
		"leader": {leader},
	}
	resp, err := f.do(ctx, "/replication/deltas", query.Encode())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		// The leader cannot extend this replica: start over from a
		// snapshot. Serving continues on the stale index meanwhile.
		return f.Bootstrap(ctx)
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("cluster: delta fetch: leader returned %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}

	// The chain can carry the leader's whole retention window, so no
	// whole-body cap applies here: each section is bounded by maxFetchBytes.
	head, deltas, reg, err := readDeltas(bufio.NewReader(resp.Body), maxFetchBytes)
	if err != nil {
		return err
	}
	if err := f.svc.ApplyPoll(head.LeaderGeneration, deltas, reg); err != nil {
		return fmt.Errorf("cluster: applying %d deltas from generation %d: %w", head.Count, head.From, err)
	}
	if reg != nil {
		f.mu.Lock()
		f.registryEpoch = head.RegistryEpoch
		f.mu.Unlock()
	}
	return nil
}

// readDeltas decodes a delta-chain artifact: its header, every delta it
// declares and the registry when it carries one, each section bounded by
// maxBytes. A chain damaged anywhere yields no deltas and no registry,
// so a follower applies whole fetches only.
func readDeltas(r io.Reader, maxBytes int64) (deltasHeader, []*index.Delta, *registry.Registry, error) {
	var head deltasHeader
	fr, err := readArtifact(r, magicDeltas, &head)
	if err != nil {
		return head, nil, nil, err
	}
	if head.Count < 0 || head.Count > 1<<20 {
		return head, nil, nil, fmt.Errorf("cluster: implausible delta count %d", head.Count)
	}
	deltas := make([]*index.Delta, 0, head.Count)
	for i := 0; i < head.Count; i++ {
		payload, err := fr.ReadSection(maxBytes)
		if err != nil {
			return head, nil, nil, fmt.Errorf("cluster: delta %d of %d: %w", i+1, head.Count, err)
		}
		d, err := index.DecodeDelta(bytes.NewReader(payload), int64(len(payload)))
		if err != nil {
			return head, nil, nil, fmt.Errorf("cluster: delta %d of %d: %w", i+1, head.Count, err)
		}
		deltas = append(deltas, d)
	}
	var reg *registry.Registry
	if head.Registry {
		if reg, err = readRegistry(fr, maxBytes); err != nil {
			return head, nil, nil, fmt.Errorf("cluster: delta chain registry: %w", err)
		}
	}
	if err := fr.ReadEOF(); err != nil {
		return head, nil, nil, fmt.Errorf("cluster: delta chain: %w", err)
	}
	return head, deltas, reg, nil
}

// Bootstrap fetches and installs a full snapshot, making the replica
// ready. The snapshot streams off the response section by section.
func (f *Follower) Bootstrap(ctx context.Context) error {
	resp, err := f.do(ctx, "/replication/snapshot", "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("cluster: snapshot fetch: leader returned %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	head, idx, reg, err := readSnapshot(bufio.NewReader(resp.Body), maxFetchBytes)
	if err != nil {
		return err
	}
	f.svc.InstallSnapshot(idx, reg)
	f.mu.Lock()
	f.registryEpoch = head.RegistryEpoch
	f.leaderID = head.Leader
	f.mu.Unlock()
	return nil
}

// do GETs a leader path with a raw query, preserving any base-path
// prefix on the leader URL (the same join the gateway and write proxy
// apply). The caller owns the response body.
func (f *Follower) do(ctx context.Context, path, query string) (*http.Response, error) {
	u := *f.leader
	u.Path = singleJoin(u.Path, path)
	u.RawQuery = query
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetching %s: %w", path, err)
	}
	return resp, nil
}
