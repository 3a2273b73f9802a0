package service

// The /streams endpoints are the service face of continuous validation
// (the paper's §6 deployment story): a stream is registered once with
// its training column, the inferred rule lands in the durable registry,
// and every future batch of the same stream is checked against it with
// drift alarms, quarantine, and automatic re-inference per the
// monitor's policy. Registry mutations persist to the configured
// registry path under regMu, so two writers cannot interleave a stale
// save over a fresh one.
//
// Stream names are single path segments (no "/"); pipelines deriving a
// name from table/column pairs should join them with another separator
// (av monitor uses "table.csv:column").

import (
	"cmp"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"

	"autovalidate/internal/core"
	"autovalidate/internal/domain"
	"autovalidate/internal/index"
	"autovalidate/internal/journal"
	"autovalidate/internal/monitor"
	"autovalidate/internal/obs"
	"autovalidate/internal/registry"
	"autovalidate/internal/validate"
)

// Registry returns the server's stream registry (for embedding callers).
func (s *Server) Registry() *registry.Registry { return s.registry }

// canReinfer reports whether /streams/{name}/check may re-learn a rule
// locally: not in read-only mode, and not a follower (a follower's
// registry is replicated from the leader; a local re-inference would be
// silently overwritten by the next registry fetch).
func (s *Server) canReinfer() bool { return !s.readOnly && s.writeProxy == nil }

// persistRegistry saves the registry to the configured path, if any,
// under regMu, so two writers cannot interleave a stale save over a
// fresh one.
func (s *Server) persistRegistry() error {
	if s.regPath == "" {
		return nil
	}
	s.regMu.Lock()
	defer s.regMu.Unlock()
	return s.registry.Save(s.regPath)
}

// StreamPutRequest registers (or re-registers) a stream from a training
// column.
type StreamPutRequest struct {
	// Train is the training column the rule is inferred from.
	Train []string `json:"train"`
	RuleParams
}

// StreamInfo describes one version of a registered stream.
type StreamInfo struct {
	Name string `json:"name"`
	// Version is this rule's version; Versions the total count
	// registered under the name.
	Version  int `json:"version"`
	Versions int `json:"versions"`
	// Domain is the semantic domain detected from the stream's training
	// column, if any: batches are checked against its validator on top
	// of the syntactic pattern.
	Domain *DomainInfo `json:"domain,omitempty"`
	// IndexGeneration is the index generation the rule was inferred
	// against; Stale reports whether the index has since moved on.
	IndexGeneration uint64         `json:"index_generation"`
	Stale           bool           `json:"stale"`
	Rule            *validate.Rule `json:"rule"`
}

// DomainInfo is the response form of a domain detection. A learned
// vocabulary is reported by size, not by value — dictionaries can be
// thousands of entries and belong in the registry, not in every list
// response.
type DomainInfo struct {
	Name       string  `json:"name"`
	Family     string  `json:"family,omitempty"`
	Confidence float64 `json:"confidence"`
	VocabSize  int     `json:"vocab_size,omitempty"`
}

func domainInfo(d domain.Detection) *DomainInfo {
	if d.Name == "" {
		return nil
	}
	return &DomainInfo{
		Name:       d.Name,
		Family:     d.Family,
		Confidence: d.Confidence,
		VocabSize:  len(d.Vocab),
	}
}

func streamInfo(s registry.Stream, versions int) StreamInfo {
	return StreamInfo{
		Name:            s.Name,
		Version:         s.Version,
		Versions:        versions,
		Domain:          domainInfo(s.Domain),
		IndexGeneration: s.IndexGeneration,
		Stale:           s.Stale,
		Rule:            s.Rule,
	}
}

// learn appends a new version of the stream's rule, learned from train
// against idx (Registry.Learn: the rule and its semantic domain). It
// counts the detected domain for /metrics ("none" when there is none,
// so detection traffic stays observable), closes the race against a
// concurrent ingest (recheckStale), and drops the monitor history
// accumulated under the old rule, which says nothing about the new one.
func (s *Server) learn(name string, train []string, idx *index.Index, opt core.Options) (registry.Stream, error) {
	stream, err := s.registry.Learn(name, train, idx, opt)
	if err != nil {
		return registry.Stream{}, err
	}
	s.domainDetected(cmp.Or(stream.Domain.Name, "none"))
	stream = s.recheckStale(stream, idx.Generation)
	s.mon.Reset(name)
	return stream, nil
}

// registerStream learns the stream's rule from train values and
// persists the registry.
func (s *Server) registerStream(name string, train []string, p RuleParams) (registry.Stream, int, error) {
	sv := s.snap.Load()
	opt, err := sv.options(p)
	if err != nil {
		return registry.Stream{}, http.StatusBadRequest, err
	}
	stream, err := s.learn(name, train, sv.idx, opt)
	if errors.Is(err, registry.ErrBadName) {
		return registry.Stream{}, http.StatusBadRequest, err
	}
	if err != nil {
		return registry.Stream{}, inferStatus(err), err
	}
	if err := s.persistRegistry(); err != nil {
		return registry.Stream{}, http.StatusInternalServerError,
			fmt.Errorf("stream registered but registry persistence failed: %w", err)
	}
	return stream, http.StatusOK, nil
}

// recheckStale closes the registration/re-inference race against a
// concurrent publish: a rule inferred against the snapshot the request
// loaded may be registered after an ingest's MarkStale ran, so if the
// published generation has moved past the one the rule was inferred at,
// re-run the invalidation and return the updated stream. This is the one
// deliberate second load of the snapshot in a request — it asks what is
// published now. (MarkStale is idempotent, and the ingest path holds no
// lock we need.) If the stream was concurrently deleted, the freshly
// created version is returned marked stale — conservative, and the
// registry no longer holds it anyway.
func (s *Server) recheckStale(stream registry.Stream, inferredGen uint64) registry.Stream {
	cur := s.snap.Load().idx
	if cur.Generation == inferredGen {
		return stream
	}
	s.registry.MarkStale(cur.Generation)
	if latest, ok := s.registry.Get(stream.Name); ok {
		return latest
	}
	stream.Stale = true
	return stream
}

func (s *Server) handleStreamPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req StreamPutRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Train) == 0 {
		writeError(w, r, http.StatusBadRequest, "train values are required")
		return
	}
	stream, status, err := s.registerStream(name, req.Train, req.RuleParams)
	if err != nil {
		writeError(w, r, status, err.Error())
		return
	}
	s.journalEvent(r.Context(), journal.Event{
		Kind:   journal.KindRegistryPut,
		Stream: name,
		Detail: mustDetail(map[string]any{"version": stream.Version}),
	})
	writeJSON(w, http.StatusOK, streamInfo(stream, s.registry.Versions(name)))
}

func (s *Server) handleStreamGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	versions := s.registry.Versions(name)
	if versions == 0 {
		writeError(w, r, http.StatusNotFound, fmt.Sprintf("unknown stream %q", name))
		return
	}
	stream, ok := s.registry.Get(name)
	if v := r.URL.Query().Get("version"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, "bad version: "+v)
			return
		}
		if stream, ok = s.registry.GetVersion(name, n); !ok {
			writeError(w, r, http.StatusNotFound, fmt.Sprintf("stream %q has no version %d", name, n))
			return
		}
	}
	if !ok {
		writeError(w, r, http.StatusNotFound, fmt.Sprintf("unknown stream %q", name))
		return
	}
	writeJSON(w, http.StatusOK, streamInfo(stream, versions))
}

func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.registry.Delete(name) {
		writeError(w, r, http.StatusNotFound, fmt.Sprintf("unknown stream %q", name))
		return
	}
	s.mon.Reset(name)
	if err := s.persistRegistry(); err != nil {
		writeError(w, r, http.StatusInternalServerError,
			"stream deleted but registry persistence failed: "+err.Error())
		return
	}
	s.journalEvent(r.Context(), journal.Event{Kind: journal.KindRegistryDelete, Stream: name})
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name})
}

// StreamListResponse enumerates registered streams.
type StreamListResponse struct {
	Streams []StreamInfo `json:"streams"`
}

func (s *Server) handleStreamList(w http.ResponseWriter, r *http.Request) {
	resp := StreamListResponse{Streams: []StreamInfo{}}
	for _, name := range s.registry.Names() {
		if stream, ok := s.registry.Get(name); ok {
			resp.Streams = append(resp.Streams, streamInfo(stream, s.registry.Versions(name)))
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// StreamCheckRequest delivers one batch of a registered stream.
type StreamCheckRequest struct {
	Values []string `json:"values"`
}

// StreamCheckResponse carries the monitor's decision, and — when the
// decision escalated to re-inference and the server is not read-only —
// the outcome of re-learning the rule from this batch.
type StreamCheckResponse struct {
	Stream   string           `json:"stream"`
	Version  int              `json:"version"`
	Decision monitor.Decision `json:"decision"`
	// Reinferred is true when the rule was re-learned from this batch;
	// NewVersion is then the bumped registry version. ReinferError
	// reports a re-inference that was attempted but failed (the old
	// rule stays in place).
	Reinferred   bool   `json:"reinferred,omitempty"`
	NewVersion   int    `json:"new_version,omitempty"`
	ReinferError string `json:"reinfer_error,omitempty"`
	// EventID is the audit-journal entry recording this decision, when
	// one was written (non-accept actions and state transitions, on
	// journal-enabled servers): GET /events?id= returns it, and it
	// appears as event_id in the server's escalation logs.
	EventID uint64 `json:"event_id,omitempty"`
}

func (s *Server) handleStreamCheck(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// Batches arrive either in the JSON envelope or as a raw column
	// (text/csv, NDJSON). Both run the rule's compiled program; the
	// columnar path checks byte views that belong to a pooled column
	// that is released when this handler returns, so values are
	// materialized as strings only for what outlives it (examples,
	// attribution samples, a re-inference's training column). Either
	// way the body is decoded (and an empty batch rejected) before the
	// registry lookup, so malformed requests answer 400 regardless of
	// the name.
	var check func(stream registry.Stream) (monitor.Decision, error)
	var reinferValues func() []string
	if kind := columnarKindOf(r.Header.Get("Content-Type")); kind != colNone {
		col, ok := decodeColumnar(w, r, kind, maxBody, r.URL.Query().Get("header") == "true")
		if !ok {
			return
		}
		defer col.release()
		values := col.values
		check = func(stream registry.Stream) (monitor.Decision, error) {
			return s.mon.CheckBytes(stream, values)
		}
		reinferValues = func() []string {
			out := make([]string, len(values))
			for i, v := range values {
				out[i] = string(v)
			}
			return out
		}
	} else {
		var req StreamCheckRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		if len(req.Values) == 0 {
			writeError(w, r, http.StatusBadRequest, "values are required")
			return
		}
		check = func(stream registry.Stream) (monitor.Decision, error) {
			return s.mon.Check(stream, req.Values)
		}
		reinferValues = func() []string { return req.Values }
	}
	stream, ok := s.registry.Get(name)
	if !ok {
		writeError(w, r, http.StatusNotFound, fmt.Sprintf("unknown stream %q (register it with PUT /streams/%s)", name, name))
		return
	}
	// The monitor evaluation is its own span under the handler's: the
	// hop-by-hop view of a slow check separates routing and decode time
	// from the statistical tests themselves.
	_, sp := s.tracer.StartSpan(r.Context(), "monitor.check")
	sp.SetStream(name)
	dec, err := check(stream)
	sp.SetError(err)
	sp.End()
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	s.countCompiled(stream.Rule, dec.Verdict.Total)
	eventID := s.journalDecision(r.Context(), name, dec)
	log := obs.Logger(r.Context()).With(slog.String("stream", name))
	if act := dec.Verdict.Action; act != monitor.Accept {
		log.Warn("stream batch escalated",
			slog.String("action", act.String()),
			slog.Int("non_conforming", dec.Verdict.NonConforming),
			slog.Int("total", dec.Verdict.Total),
			slog.Int("consecutive_alarms", dec.ConsecutiveAlarms),
			slog.Uint64("event_id", eventID))
	}
	if v := dec.Verdict; v.Domain != "" {
		s.domainChecked(v.Domain, v.Total-v.DomainInvalid, v.DomainInvalid)
	}
	resp := StreamCheckResponse{Stream: name, Version: stream.Version, Decision: dec, EventID: eventID}
	if dec.Verdict.Action == monitor.Reinfer && s.canReinfer() {
		// The drifted batch is the stream's new normal: re-learn the
		// rule from it with the stream's original inference options,
		// and re-detect the domain — the batch that changed the
		// stream's syntax may have changed its semantics too.
		if next, err := s.learn(name, reinferValues(), s.snap.Load().idx, stream.Options); err != nil {
			resp.ReinferError = err.Error()
		} else {
			resp.Reinferred = true
			resp.NewVersion = next.Version
			reinferEvent := s.journalEvent(r.Context(), journal.Event{
				Kind:   journal.KindReinfer,
				Stream: name,
				Detail: mustDetail(map[string]any{"new_version": next.Version, "decision_event_id": eventID}),
			})
			log.Info("stream rule re-inferred",
				slog.Int("new_version", next.Version),
				slog.Uint64("event_id", reinferEvent))
			if err := s.persistRegistry(); err != nil {
				resp.ReinferError = "re-inferred but registry persistence failed: " + err.Error()
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStreamHistory(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.registry.Versions(name) == 0 {
		writeError(w, r, http.StatusNotFound, fmt.Sprintf("unknown stream %q", name))
		return
	}
	h, _ := s.mon.History(name) // zero history is a valid answer
	writeJSON(w, http.StatusOK, h)
}
