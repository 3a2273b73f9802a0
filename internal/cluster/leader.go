package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"autovalidate/internal/index"
	"autovalidate/internal/registry"
	"autovalidate/internal/service"
)

// Leader exposes a service's state for replication: GET
// /replication/snapshot streams the current index and stream registry as
// one framed artifact, GET /replication/deltas serves the retained
// ingest-delta chain from the service's DeltaLog, and GET
// /replication/registry re-ships the registry alone when only stream
// rules changed. All other routes fall through to the service handler.
type Leader struct {
	svc *service.Server
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
	return &Leader{svc: svc}, nil
}

// Handler returns the leader's routes layered over the service's.
func (l *Leader) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /replication/snapshot", l.handleSnapshot)
	mux.HandleFunc("GET /replication/deltas", l.handleDeltas)
	mux.HandleFunc("GET /replication/registry", l.handleRegistry)
	mux.Handle("/", l.svc.Handler())
	return mux
}

// WriteSnapshot encodes the leader's current index and registry as one
// framed snapshot artifact.
func WriteSnapshot(w io.Writer, svc *service.Server) error {
	head, idx, reg, err := encodeSnapshot(svc)
	if err != nil {
		return err
	}
	return writeArtifact(w, magicSnapshot, head, idx, reg)
}

// encodeSnapshot encodes the snapshot's two sections, the index and the
// registry, and the header that frames them. The registry epoch is read
// before either payload is encoded: if a mutation lands mid-encode, the
// follower records the older epoch and the next delta poll's epoch
// mismatch triggers a registry re-fetch, so the race heals instead of
// hiding.
func encodeSnapshot(svc *service.Server) (head snapshotHeader, idx, reg []byte, err error) {
	epoch := svc.Registry().Epoch()
	cur := svc.Index()
	var idxBuf bytes.Buffer
	if err := cur.Encode(&idxBuf); err != nil {
		return head, nil, nil, fmt.Errorf("cluster: encoding snapshot index: %w", err)
	}
	var regBuf bytes.Buffer
	if err := svc.Registry().Encode(&regBuf); err != nil {
		return head, nil, nil, fmt.Errorf("cluster: encoding snapshot registry: %w", err)
	}
	head = snapshotHeader{Generation: cur.Generation, RegistryEpoch: epoch}
	return head, idxBuf.Bytes(), regBuf.Bytes(), nil
}

// ReadSnapshot decodes a snapshot artifact written by WriteSnapshot,
// returning the index, the registry, and the leader's registry epoch at
// snapshot time (the seed for the follower's registry-change detection).
// maxBytes bounds each section's allocation.
func ReadSnapshot(r io.Reader, maxBytes int64) (*index.Index, *registry.Registry, uint64, error) {
	var head snapshotHeader
	fr, err := readArtifact(r, magicSnapshot, &head)
	if err != nil {
		return nil, nil, 0, err
	}
	idxBytes, err := fr.ReadSection(maxBytes)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("cluster: snapshot index: %w", err)
	}
	regBytes, err := fr.ReadSection(maxBytes)
	if err == nil {
		err = fr.ReadEOF()
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("cluster: snapshot registry: %w", err)
	}
	idx, err := index.Decode(bytes.NewReader(idxBytes), int64(len(idxBytes)))
	if err != nil {
		return nil, nil, 0, fmt.Errorf("cluster: snapshot index: %w", err)
	}
	reg, err := registry.Decode(bytes.NewReader(regBytes))
	if err != nil {
		return nil, nil, 0, fmt.Errorf("cluster: snapshot registry: %w", err)
	}
	return idx, reg, head.RegistryEpoch, nil
}

func (l *Leader) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	// The section payloads must be buffered once for their length
	// prefixes, but the framed artifact streams straight to the
	// response — a multi-gigabyte snapshot is never held twice.
	head, idx, reg, err := encodeSnapshot(l.svc)
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

func (l *Leader) handleDeltas(w http.ResponseWriter, r *http.Request) {
	fromStr := r.URL.Query().Get("from")
	from, err := strconv.ParseUint(fromStr, 10, 64)
	if err != nil {
		http.Error(w, fmt.Sprintf("bad from=%q: %v", fromStr, err), http.StatusBadRequest)
		return
	}
	epoch := l.svc.Registry().Epoch()
	cur := l.svc.Generation()

	var deltas []*index.Delta
	if from < cur {
		retained, ok := l.svc.DeltaLog().Since(from)
		// The retained chain must cover every generation in [from, cur);
		// anything less means the follower is behind the retention
		// window (or the leader restarted with an empty log) and must
		// re-bootstrap from a snapshot: 410 Gone.
		if !ok || from+uint64(len(retained)) < cur {
			http.Error(w,
				fmt.Sprintf("generation %d is behind the retained delta window; fetch /replication/snapshot", from),
				http.StatusGone)
			return
		}
		deltas = retained
	}

	payloads := make([][]byte, len(deltas))
	for i, d := range deltas {
		var buf bytes.Buffer
		if err := index.EncodeDelta(&buf, d); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		payloads[i] = buf.Bytes()
	}
	head := deltasHeader{From: from, Count: len(payloads), LeaderGeneration: cur, RegistryEpoch: epoch}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_ = writeArtifact(w, magicDeltas, head, payloads...)
}

func (l *Leader) handleRegistry(w http.ResponseWriter, r *http.Request) {
	epoch := l.svc.Registry().Epoch()
	var regBuf bytes.Buffer
	if err := l.svc.Registry().Encode(&regBuf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_ = writeArtifact(w, magicRegistry, registryHeader{RegistryEpoch: epoch}, regBuf.Bytes())
}
