package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"path/filepath"
	"sync"
	"time"

	"autovalidate/internal/cluster"
	"autovalidate/internal/core"
	"autovalidate/internal/datagen"
	"autovalidate/internal/index"
	"autovalidate/internal/journal"
	"autovalidate/internal/obs"
	"autovalidate/internal/pattern"
	"autovalidate/internal/registry"
	"autovalidate/internal/service"
)

const (
	lakeTables = 150
	// followerPoll is the delta-poll interval `avbench -exp cluster` uses.
	followerPoll = 25 * time.Millisecond
	// deltaRetain is avserve's default -retain.
	deltaRetain = 64
)

// lake is the offline half of set-up: the generated corpus's index and
// the inference options every member runs with (evalbench.DefaultConfig:
// m=15, τ=8).
type lake struct {
	idx *index.Index
	opt core.Options
}

func buildLake(seed int64) *lake {
	corpus := datagen.Generate(datagen.Enterprise(lakeTables, seed))
	enum := pattern.DefaultEnumOptions()
	enum.MaxTokens = 8
	idx := index.Build(corpus.Columns(), index.BuildOptions{Enum: enum})
	opt := core.DefaultOptions()
	opt.M = 15
	opt.Tau = enum.MaxTokens
	return &lake{idx: idx, opt: opt}
}

type role int

const (
	roleStandalone role = iota
	roleLeader
	roleFollower
)

// member is one avserve-equivalent: a service configured as the binary
// ships (tracer sampling every request, JSON logger, journal on, the
// leader persisting its registry), served on loopback HTTP.
type member struct {
	svc     *service.Server
	handler http.Handler
	jrn     *journal.Journal
	url     *url.URL
	srv     *http.Server
}

// newMember builds the service under dir without serving it; the index
// is shared, never cloned: a service only ever swaps in a merged copy.
func newMember(lk *lake, dir string, r role, leaderURL *url.URL) (*member, error) {
	jrn, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		return nil, fmt.Errorf("opening journal: %w", err)
	}
	opt := lk.opt
	cfg := service.Config{
		Index:   lk.idx,
		Options: &opt,
		Logger:  obs.NewLogger(io.Discard, "avserve"),
		Tracer:  obs.NewTracer(obs.TracerConfig{SampleEvery: 1}),
		Journal: jrn,
	}
	switch r {
	case roleFollower:
		cfg.Index = index.New(index.DefaultShards())
		cfg.StartUnready = true
		cfg.WriteProxy = leaderURL
	case roleLeader:
		cfg.DeltaLog = index.NewDeltaLog(deltaRetain)
		fallthrough
	default:
		cfg.Registry = registry.New()
		cfg.RegistryPath = filepath.Join(dir, "rules.avr")
	}
	svc, err := service.New(cfg)
	if err != nil {
		return nil, errors.Join(err, jrn.Close())
	}
	m := &member{svc: svc, handler: svc.Handler(), jrn: jrn}
	if r == roleLeader {
		l, err := cluster.NewLeader(svc)
		if err != nil {
			return nil, errors.Join(err, jrn.Close())
		}
		m.handler = l.Handler()
	}
	return m, nil
}

// The cluster listens on fixed loopback ports: the gateway places
// streams by hashing their names against the member URLs, so with the
// same ports every run spreads the 16 streams over the members alike
// (8 and 8, 4 and 4 per client; a test holds this). A taken port fails
// the run rather than measure another placement unnoticed. The probes
// of the traced replay have one member each and take any free port.
const (
	gatewayPort  = 18470
	leaderPort   = 18471
	followerPort = 18483
	anyPort      = 0
)

// serve starts h on the loopback port.
func serve(h http.Handler, port int) (*http.Server, *url.URL, error) {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return nil, nil, fmt.Errorf("listening on loopback: %w", err)
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed on close
	return srv, &url.URL{Scheme: "http", Host: ln.Addr().String()}, nil
}

func (m *member) serve(port int) error {
	srv, u, err := serve(m.handler, port)
	if err != nil {
		return err
	}
	m.srv, m.url = srv, u
	return nil
}

func (m *member) close() error {
	var err error
	if m.srv != nil {
		err = shutdown(m.srv)
	}
	return errors.Join(err, m.jrn.Close())
}

// shutdown closes the server's listener and connections. Every client
// has had its answer by now; a graceful Shutdown would only wait out
// connections that were dialled and never used.
func shutdown(srv *http.Server) error { return srv.Close() }

// testCluster is the system under test: gateway → {leader, follower},
// all in this process, talking real HTTP on loopback.
type testCluster struct {
	leader, follower *member
	repl             *cluster.Follower
	gateway          *cluster.Gateway
	gwSrv            *http.Server
	gwURL            *url.URL

	cancel context.CancelFunc
	loops  sync.WaitGroup
	closed bool
}

// startCluster stands the cluster up under dir and registers the
// schedule's streams through the gateway.
func startCluster(lk *lake, sc *schedule, dir string) (_ *testCluster, err error) {
	c := &testCluster{}
	defer func() {
		if err != nil {
			err = errors.Join(err, c.close())
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel

	if c.leader, err = newServedMember(lk, filepath.Join(dir, "leader"), roleLeader, nil, leaderPort); err != nil {
		return nil, err
	}
	if c.follower, err = newServedMember(lk, filepath.Join(dir, "follower"), roleFollower, c.leader.url, followerPort); err != nil {
		return nil, err
	}
	c.repl, err = cluster.NewFollower(cluster.FollowerConfig{
		Leader:       c.leader.url,
		Service:      c.follower.svc,
		PollInterval: followerPoll,
		Logger:       obs.NewLogger(io.Discard, "avserve"),
	})
	if err != nil {
		return nil, err
	}
	if err := c.repl.CatchUp(ctx); err != nil {
		return nil, fmt.Errorf("bootstrapping follower: %w", err)
	}
	c.gateway, err = cluster.NewGateway(cluster.GatewayConfig{
		Members: []*url.URL{c.leader.url, c.follower.url},
		Logger:  obs.NewLogger(io.Discard, "avgateway"),
		Tracer:  obs.NewTracer(obs.TracerConfig{SampleEvery: 1}),
	})
	if err != nil {
		return nil, err
	}
	if c.gwSrv, c.gwURL, err = serve(c.gateway.Handler(), gatewayPort); err != nil {
		return nil, err
	}
	c.loops.Add(2)
	go func() { defer c.loops.Done(); c.repl.Run(ctx) }()
	go func() { defer c.loops.Done(); c.gateway.Run(ctx) }()

	if err := registerStreams(c.gwURL, sc); err != nil {
		return nil, err
	}
	// Registrations hashed to the follower were proxied to the leader and
	// come back by registry replication.
	if err := c.waitConverged(5 * time.Second); err != nil {
		return nil, err
	}
	return c, nil
}

func newServedMember(lk *lake, dir string, r role, leaderURL *url.URL, port int) (*member, error) {
	m, err := newMember(lk, dir, r, leaderURL)
	if err != nil {
		return nil, err
	}
	if err := m.serve(port); err != nil {
		return nil, errors.Join(err, m.close())
	}
	return m, nil
}

func registerStreams(base *url.URL, sc *schedule) error {
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	for _, st := range sc.streams {
		body, err := json.Marshal(service.StreamPutRequest{Train: st.train})
		if err != nil {
			return fmt.Errorf("encoding registration of %s: %w", st.name, err)
		}
		req, err := http.NewRequest(http.MethodPut, base.String()+"/streams/"+st.name, bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("registering %s: %w", st.name, err)
		}
		req.Header.Set("Content-Type", encJSON)
		status, reply, err := do(client, req)
		if err != nil {
			return fmt.Errorf("registering %s: %w", st.name, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("registering %s: status %d: %s", st.name, status, bytes.TrimSpace(reply))
		}
	}
	return nil
}

// do sends req and returns the status and the whole body.
func do(client *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("reading response: %w", err)
	}
	return resp.StatusCode, body, nil
}

// converged reports whether the follower serves the leader's index
// generation and registry.
func (c *testCluster) converged() bool {
	return c.follower.svc.Generation() == c.leader.svc.Generation() &&
		c.repl.Status().RegistryEpoch == c.leader.svc.Registry().Epoch()
}

func (c *testCluster) waitConverged(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for !c.converged() {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower at generation %d, registry epoch %d did not reach the leader's %d, %d within %s",
				c.follower.svc.Generation(), c.repl.Status().RegistryEpoch,
				c.leader.svc.Generation(), c.leader.svc.Registry().Epoch(), limit)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// close stops the loops and servers and waits for them; a second call
// does nothing.
func (c *testCluster) close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.cancel != nil {
		c.cancel()
	}
	c.loops.Wait()
	var err error
	if c.gwSrv != nil {
		err = shutdown(c.gwSrv)
	}
	for _, m := range []*member{c.follower, c.leader} {
		if m != nil {
			err = errors.Join(err, m.close())
		}
	}
	return err
}
