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
	"strings"
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
	// Snapshots and Deltas count installs since the follower started; a
	// Snapshots value above 1 means the follower fell behind the
	// leader's delta retention window at least once.
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

	mu            sync.Mutex
	bootstrapped  bool
	registryEpoch uint64
	snapshots     int
	deltas        int
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

// Status snapshots the loop's progress.
func (f *Follower) Status() FollowerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FollowerStatus{
		Bootstrapped:  f.bootstrapped,
		Generation:    f.svc.Generation(),
		RegistryEpoch: f.registryEpoch,
		Snapshots:     f.snapshots,
		Deltas:        f.deltas,
		LastError:     f.lastErr,
	}
}

// Run polls the leader until ctx is done, re-bootstrapping from a
// snapshot whenever the delta window has moved past this follower.
// Failures are recorded in Status and retried next interval — a follower
// outliving a leader restart needs no operator action.
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
// is installed yet, otherwise fetch and apply the deltas the local
// generation is missing, then refresh the registry if the leader's
// epoch moved. Returns nil when the follower is (momentarily) caught up.
func (f *Follower) CatchUp(ctx context.Context) error {
	f.mu.Lock()
	booted := f.bootstrapped
	f.mu.Unlock()
	if !booted {
		return f.Bootstrap(ctx)
	}

	resp, err := f.do(ctx, fmt.Sprintf("/replication/deltas?from=%d", f.svc.Generation()))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		// Behind the leader's retention window: start over from a
		// snapshot. Serving continues on the stale index meanwhile.
		return f.Bootstrap(ctx)
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("cluster: delta fetch: leader returned %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}

	// The chain can carry the leader's whole retention window, so no
	// whole-body cap applies here: each section is bounded by maxFetchBytes.
	head, deltas, err := readDeltas(bufio.NewReader(resp.Body), maxFetchBytes)
	if err != nil {
		return err
	}
	// Record how far ahead the leader is before applying, so the
	// generations-behind gauge reflects lag while a long chain applies.
	f.svc.ObserveLeaderGeneration(head.LeaderGeneration)
	applied := 0
	for i, d := range deltas {
		if d.Base < f.svc.Generation() {
			// Already applied (the leader served a superset; harmless).
			continue
		}
		if err := f.svc.ReplicateDelta(d); err != nil {
			return fmt.Errorf("cluster: applying delta %d of %d: %w", i+1, head.Count, err)
		}
		applied++
	}
	f.mu.Lock()
	f.deltas += applied
	epoch := f.registryEpoch
	f.mu.Unlock()

	if head.RegistryEpoch != epoch {
		return f.refreshRegistry(ctx)
	}
	return nil
}

// readDeltas decodes a delta-chain artifact: its header and every delta
// it declares, each section bounded by maxBytes. A chain damaged
// anywhere yields no deltas, so a follower applies whole fetches only.
func readDeltas(r io.Reader, maxBytes int64) (deltasHeader, []*index.Delta, error) {
	var head deltasHeader
	fr, err := readArtifact(r, magicDeltas, &head)
	if err != nil {
		return head, nil, err
	}
	if head.Count < 0 || head.Count > 1<<20 {
		return head, nil, fmt.Errorf("cluster: implausible delta count %d", head.Count)
	}
	deltas := make([]*index.Delta, 0, head.Count)
	for i := 0; i < head.Count; i++ {
		payload, err := fr.ReadSection(maxBytes)
		if err != nil {
			return head, nil, fmt.Errorf("cluster: delta %d of %d: %w", i+1, head.Count, err)
		}
		d, err := index.DecodeDelta(bytes.NewReader(payload), int64(len(payload)))
		if err != nil {
			return head, nil, fmt.Errorf("cluster: delta %d of %d: %w", i+1, head.Count, err)
		}
		deltas = append(deltas, d)
	}
	if err := fr.ReadEOF(); err != nil {
		return head, nil, fmt.Errorf("cluster: delta chain: %w", err)
	}
	return head, deltas, nil
}

// Bootstrap fetches and installs a full snapshot, making the replica
// ready.
func (f *Follower) Bootstrap(ctx context.Context) error {
	body, status, err := f.fetch(ctx, "/replication/snapshot")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("cluster: snapshot fetch: leader returned %d: %s", status, bytes.TrimSpace(body))
	}
	idx, reg, epoch, err := ReadSnapshot(bytes.NewReader(body), maxFetchBytes)
	if err != nil {
		return err
	}
	f.svc.InstallSnapshot(idx, reg)
	f.mu.Lock()
	f.bootstrapped = true
	f.registryEpoch = epoch
	f.snapshots++
	f.mu.Unlock()
	f.log.Info("snapshot installed",
		slog.Uint64("generation", f.svc.Generation()),
		slog.Uint64("registry_epoch", epoch))
	return nil
}

// refreshRegistry re-fetches the leader's registry after an epoch
// change (a stream was registered, re-inferred, deleted, or marked
// stale) without re-shipping the index.
func (f *Follower) refreshRegistry(ctx context.Context) error {
	body, status, err := f.fetch(ctx, "/replication/registry")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("cluster: registry fetch: leader returned %d: %s", status, bytes.TrimSpace(body))
	}
	var head registryHeader
	fr, err := readArtifact(bytes.NewReader(body), magicRegistry, &head)
	if err != nil {
		return err
	}
	payload, err := fr.ReadSection(maxFetchBytes)
	if err == nil {
		err = fr.ReadEOF()
	}
	if err != nil {
		return fmt.Errorf("cluster: registry artifact: %w", err)
	}
	reg, err := registry.Decode(bytes.NewReader(payload))
	if err != nil {
		return err
	}
	f.svc.InstallRegistry(reg)
	f.mu.Lock()
	f.registryEpoch = head.RegistryEpoch
	f.mu.Unlock()
	return nil
}

// do GETs a leader path, preserving any base-path prefix on the leader
// URL (the same join the gateway and write proxy apply). The caller
// owns the response body.
func (f *Follower) do(ctx context.Context, path string) (*http.Response, error) {
	u := *f.leader
	// Split any query off the path so it lands in the URL's RawQuery.
	query := ""
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path, query = path[:i], path[i+1:]
	}
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

// fetch GETs a leader path and returns the full body (bounded) and
// status code — for the snapshot and registry artifacts, whose two
// sections fit under 2×maxFetchBytes.
func (f *Follower) fetch(ctx context.Context, path string) ([]byte, int, error) {
	resp, err := f.do(ctx, path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 2*maxFetchBytes+maxHeader))
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: reading %s: %w", path, err)
	}
	return body, resp.StatusCode, nil
}
