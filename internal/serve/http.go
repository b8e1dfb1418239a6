package serve

// The HTTP/JSON front end. Every query response carries the epoch it
// was answered from; all reads on one request come from a single
// CurrentEpoch() load, so the fields of one response are mutually
// consistent even under concurrent churn.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"dkcore"
)

// Request-size guards for the HTTP API.
const (
	// maxMutateBody caps a POST /mutate body.
	maxMutateBody = 8 << 20
	// maxCorenessNodes caps the node list of one GET /coreness request.
	maxCorenessNodes = 4096
)

// Handler returns the HTTP API:
//
//	GET  /coreness?node=3&node=7   per-node coreness
//	GET  /kcore?k=2                k-core member list
//	GET  /degeneracy               degeneracy (max coreness)
//	GET  /stats                    serving counters
//	GET  /healthz                  legacy combined health (503 when shutting down)
//	GET  /healthz/live             liveness: 200 while the process can answer at all
//	GET  /healthz/ready            readiness: 503 during shutdown drain or excessive epoch lag
//	POST /mutate[?wait=1]          JSON mutation batch
//
// Liveness and readiness are split so orchestrators can tell "restart
// me" from "stop routing to me": a draining or lag-saturated server is
// alive (no restart) but not ready (no new traffic).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/coreness", s.handleCoreness)
	mux.HandleFunc("/kcore", s.handleKCore)
	mux.HandleFunc("/degeneracy", s.handleDegeneracy)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/healthz/live", s.handleLive)
	mux.HandleFunc("/healthz/ready", s.handleReady)
	mux.HandleFunc("/mutate", s.handleMutate)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func requireGet(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return false
	}
	return true
}

func (s *Server) handleCoreness(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	nodes := r.URL.Query()["node"]
	if len(nodes) == 0 {
		writeError(w, http.StatusBadRequest, "at least one node parameter required")
		return
	}
	if len(nodes) > maxCorenessNodes {
		writeError(w, http.StatusBadRequest, "at most %d nodes per request", maxCorenessNodes)
		return
	}
	ep := s.sess.CurrentEpoch()
	coreness := make(map[string]int, len(nodes))
	for _, raw := range nodes {
		u, err := strconv.Atoi(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad node %q", raw)
			return
		}
		coreness[raw] = ep.Coreness(u)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":    ep.Seq(),
		"coreness": coreness,
	})
}

func (s *Server) handleKCore(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	k, err := strconv.Atoi(r.URL.Query().Get("k"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "k parameter required")
		return
	}
	ep := s.sess.CurrentEpoch()
	members := ep.KCoreMembers(k)
	if members == nil {
		members = []int{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":   ep.Seq(),
		"k":       k,
		"count":   len(members),
		"members": members,
	})
}

func (s *Server) handleDegeneracy(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	ep := s.sess.CurrentEpoch()
	writeJSON(w, http.StatusOK, map[string]any{
		"epoch":      ep.Seq(),
		"degeneracy": ep.Degeneracy(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, s.stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	s.mu.Lock()
	down := s.shutdown
	s.mu.Unlock()
	st := s.sessStats()
	status := http.StatusOK
	body := map[string]any{
		"ok":          !down,
		"epoch":       st.Epoch,
		"queue_depth": st.QueueDepth,
		"epoch_lag":   st.EpochLag(),
	}
	if down {
		status = http.StatusServiceUnavailable
		body["error"] = "shutting down"
	}
	writeJSON(w, status, body)
}

// handleLive answers the liveness probe: the process is up and the
// handler runs, so it always reports 200 — even mid-shutdown, when the
// server is deliberately finishing in-flight work and a restart would
// only lose it.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":    true,
		"epoch": s.sess.CurrentEpoch().Seq(),
	})
}

// handleReady answers the readiness probe: 503 while draining after
// Shutdown, and 503 when the epoch lag exceeds the WithReadyMaxLag
// bound — an overloaded writer should shed new traffic, not absorb it
// ever later.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	s.mu.Lock()
	down := s.shutdown
	s.mu.Unlock()
	st := s.sessStats()
	lag := st.EpochLag()
	body := map[string]any{
		"ok":          true,
		"epoch":       st.Epoch,
		"queue_depth": st.QueueDepth,
		"epoch_lag":   lag,
	}
	if s.readyMaxLag > 0 {
		body["max_lag"] = s.readyMaxLag
	}
	switch {
	case down:
		body["ok"] = false
		body["error"] = "shutting down"
	case s.readyMaxLag > 0 && lag > s.readyMaxLag:
		body["ok"] = false
		body["error"] = fmt.Sprintf("epoch lag %d exceeds bound %d", lag, s.readyMaxLag)
	default:
		writeJSON(w, http.StatusOK, body)
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, body)
}

// mutateRequest is the POST /mutate body: a batch of edge events with
// op "insert"/"+" or "delete"/"-".
type mutateRequest struct {
	Events []mutateEvent `json:"events"`
}

type mutateEvent struct {
	Op string `json:"op"`
	U  int    `json:"u"`
	V  int    `json:"v"`
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	s.mu.Lock()
	down := s.shutdown
	s.mu.Unlock()
	if down {
		writeError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	var req mutateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxMutateBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad mutation body: %v", err)
		return
	}
	events := make([]dkcore.EdgeEvent, 0, len(req.Events))
	for i, me := range req.Events {
		var op dkcore.EdgeOp
		switch me.Op {
		case "insert", "+", "":
			op = dkcore.EdgeInsert
		case "delete", "-":
			op = dkcore.EdgeDelete
		default:
			writeError(w, http.StatusBadRequest, "event %d: unknown op %q", i, me.Op)
			return
		}
		if me.U < 0 || me.V < 0 || me.U > maxNodeID || me.V > maxNodeID {
			writeError(w, http.StatusBadRequest, "event %d: endpoint out of range", i)
			return
		}
		events = append(events, dkcore.EdgeEvent{Op: op, U: me.U, V: me.V})
	}
	wait := false
	switch r.URL.Query().Get("wait") {
	case "", "0", "false":
	case "1", "true":
		wait = true
	default:
		writeError(w, http.StatusBadRequest, "bad wait parameter")
		return
	}
	res, err := s.applyMutations(r.Context(), events, wait)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, dkcore.ErrQueueFull) {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, map[string]any{
			"error":   err.Error(),
			"applied": res.Applied,
			"epoch":   res.Epoch,
		})
		return
	}
	writeJSON(w, http.StatusOK, res)
}
