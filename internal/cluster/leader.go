package cluster

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"autovalidate/internal/frame"
	"autovalidate/internal/index"
	"autovalidate/internal/registry"
	"autovalidate/internal/service"
)

// Leader exposes a service's state for replication: GET
// /replication/snapshot streams the current index and stream registry as
// one framed artifact, and GET /replication/deltas answers every later
// catch-up round in one response — the retained ingest deltas the
// follower is missing, followed by the registry when its epoch moved, or
// 410 Gone when the follower must bootstrap again. All other routes fall
// through to the service handler.
type Leader struct {
	svc *service.Server
	// id names this leader process in its snapshots. A leader restarted
	// from its index file counts generations and registry epochs afresh,
	// so a follower that sends back another id holds a history this
	// leader cannot extend.
	id string
}

// NewLeader wraps a service for replication. The service must have been
// built with a DeltaLog: without retained deltas every follower poll
// behind the head would force a full snapshot.
func NewLeader(svc *service.Server) (*Leader, error) {
	if svc == nil {
		return nil, fmt.Errorf("cluster: nil service")
	}
	if svc.DeltaLog() == nil {
		return nil, fmt.Errorf("cluster: leader requires a service with a delta log (service.Config.DeltaLog)")
	}
	return &Leader{svc: svc, id: rand.Text()}, nil
}

// Handler returns the leader's routes layered over the service's.
func (l *Leader) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /replication/snapshot", l.handleSnapshot)
	mux.HandleFunc("GET /replication/deltas", l.handleDeltas)
	mux.Handle("/", l.svc.Handler())
	return mux
}

// WriteSnapshot encodes the leader's current index and registry as one
// framed snapshot artifact.
func WriteSnapshot(w io.Writer, svc *service.Server) error {
	head, idx, reg, err := encodeSnapshot(svc, "")
	if err != nil {
		return err
	}
	return writeArtifact(w, magicSnapshot, head, idx, reg)
}

// encodeSnapshot encodes the snapshot's two sections, the index and the
// registry, and the header that frames them.
func encodeSnapshot(svc *service.Server, leader string) (head snapshotHeader, idx, reg []byte, err error) {
	epoch := svc.Registry().Epoch()
	cur := svc.Index()
	var idxBuf bytes.Buffer
	if err := cur.Encode(&idxBuf); err != nil {
		return head, nil, nil, fmt.Errorf("cluster: encoding snapshot index: %w", err)
	}
	if reg, err = encodeRegistry(svc.Registry()); err != nil {
		return head, nil, nil, err
	}
	head = snapshotHeader{Generation: cur.Generation, RegistryEpoch: epoch, Leader: leader}
	return head, idxBuf.Bytes(), reg, nil
}

// encodeRegistry encodes a registry section. Callers read the epoch they
// report before encoding: if a mutation lands mid-encode, the follower
// records the older epoch and its next poll re-ships the registry, so
// the race heals instead of hiding.
func encodeRegistry(reg *registry.Registry) ([]byte, error) {
	var buf bytes.Buffer
	if err := reg.Encode(&buf); err != nil {
		return nil, fmt.Errorf("cluster: encoding registry: %w", err)
	}
	return buf.Bytes(), nil
}

// readRegistry reads and decodes a registry section.
func readRegistry(fr *frame.Reader, maxBytes int64) (*registry.Registry, error) {
	payload, err := fr.ReadSection(maxBytes)
	if err != nil {
		return nil, err
	}
	return registry.Decode(bytes.NewReader(payload))
}

// ReadSnapshot decodes a snapshot artifact written by WriteSnapshot,
// returning the index, the registry, and the leader's registry epoch at
// snapshot time (the seed for the follower's registry-change detection).
// maxBytes bounds each section's allocation.
func ReadSnapshot(r io.Reader, maxBytes int64) (*index.Index, *registry.Registry, uint64, error) {
	head, idx, reg, err := readSnapshot(r, maxBytes)
	return idx, reg, head.RegistryEpoch, err
}

func readSnapshot(r io.Reader, maxBytes int64) (snapshotHeader, *index.Index, *registry.Registry, error) {
	var head snapshotHeader
	fr, err := readArtifact(r, magicSnapshot, &head)
	if err != nil {
		return head, nil, nil, err
	}
	idxBytes, err := fr.ReadSection(maxBytes)
	if err != nil {
		return head, nil, nil, fmt.Errorf("cluster: snapshot index: %w", err)
	}
	reg, err := readRegistry(fr, maxBytes)
	if err == nil {
		err = fr.ReadEOF()
	}
	if err != nil {
		return head, nil, nil, fmt.Errorf("cluster: snapshot registry: %w", err)
	}
	idx, err := index.Decode(bytes.NewReader(idxBytes), int64(len(idxBytes)))
	if err != nil {
		return head, nil, nil, fmt.Errorf("cluster: snapshot index: %w", err)
	}
	return head, idx, reg, nil
}

func (l *Leader) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	// The section payloads must be buffered once for their length
	// prefixes, but the framed artifact streams straight to the
	// response — a multi-gigabyte snapshot is never held twice.
	head, idx, reg, err := encodeSnapshot(l.svc, l.id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	// A write error here means the follower hung up; its next poll
	// retries, so the error is dropped.
	_ = writeArtifact(w, magicSnapshot, head, idx, reg)
}

// handleDeltas answers a follower's poll, ?from=G&epoch=E&leader=L: its
// generation, the registry epoch it holds and the leader id its snapshot
// carried.
func (l *Leader) handleDeltas(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	epoch, epochErr := strconv.ParseUint(q.Get("epoch"), 10, 64)
	if err = errors.Join(err, epochErr); err != nil {
		http.Error(w, fmt.Sprintf("bad from or epoch: %v", err), http.StatusBadRequest)
		return
	}
	cur := l.svc.Generation()
	retained, ok := l.svc.DeltaLog().Since(from)
	// Every reason to bootstrap again is decided here, as 410 Gone: the
	// follower's history comes from another leader process, runs past
	// this leader's head, or starts behind the retained window (which
	// must cover every generation in [from, cur)).
	if q.Get("leader") != l.id || from > cur || !ok || from+uint64(len(retained)) < cur {
		http.Error(w,
			fmt.Sprintf("generation %d of leader %q is not on this leader's retained delta chain; fetch /replication/snapshot", from, q.Get("leader")),
			http.StatusGone)
		return
	}
	// Serve no delta past the generation this response reports, so a
	// follower never stands ahead of its leader's published index.
	retained = retained[:cur-from]

	payloads := make([][]byte, len(retained), len(retained)+1)
	for i, d := range retained {
		var buf bytes.Buffer
		if err := index.EncodeDelta(&buf, d); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		payloads[i] = buf.Bytes()
	}
	head := deltasHeader{From: from, Count: len(retained), LeaderGeneration: cur, RegistryEpoch: l.svc.Registry().Epoch()}
	if head.RegistryEpoch != epoch {
		reg, err := encodeRegistry(l.svc.Registry())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		head.Registry = true
		payloads = append(payloads, reg)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_ = writeArtifact(w, magicDeltas, head, payloads...)
}
