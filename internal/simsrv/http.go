package simsrv

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"hugeomp/internal/omp"
)

// Handler returns the service's HTTP surface:
//
//	POST /run     — run (or recall) one simulation
//	GET  /healthz — liveness and drain state
//	GET  /stats   — typed event counters
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", s.handleRun)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

// handleRun answers one /run request. It reads the body once, bounded by
// MaxBodyBytes. A body whose exact bytes compiled before, to a key the memo
// still holds, is answered from the memo at once: no decode, no compile, no
// RunKey and no deadline. Every other body (first seen, memo-evicted,
// inject, invalid, oversized) is decoded from the bytes read, with the
// read's error after them, so the decoder sees the stream it always saw:
// unknown fields are refused, bytes after the first value are ignored, and
// a value cut off by the limit is a 413.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.ctr.drained.Add(1)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, kindDraining, "server is draining")
		return
	}

	body, readErr := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	var sum bodySum
	if readErr == nil {
		sum = sha256.Sum256(body)
		if key, ok := s.bodyKeys.get(&sum); ok {
			if result, ok := s.memo.Lookup(key); ok {
				s.ctr.requests.Add(1)
				s.ctr.completed.Add(1)
				s.ctr.cacheHits.Add(1)
				writeResult(w, key, true, result)
				return
			}
		}
	}

	var src io.Reader = bytes.NewReader(body)
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	var req Request
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.ctr.invalid.Add(1)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, kindInvalid, "request body exceeds limit")
			return
		}
		writeError(w, http.StatusBadRequest, kindInvalid, "malformed request: "+err.Error())
		return
	}

	cfg, kernel, key, err := s.compile(&req)
	if err != nil {
		s.ctr.invalid.Add(1)
		writeError(w, http.StatusBadRequest, kindInvalid, err.Error())
		return
	}
	if req.Inject == "" && readErr == nil {
		// An inject request must dispatch every time, so its body is never
		// recorded; neither is a body cut short by the limit.
		s.bodyKeys.put(&sum, key)
	}

	// The deadline budget starts at admission: queue wait spends it too, so
	// a request cannot hold a queue slot beyond the budget it arrived with.
	// It is fixed here and turned into a context only by a request that must
	// run a session.
	deadline := time.Now().Add(s.budget(&req))

	s.ctr.requests.Add(1)
	if req.Inject != "" {
		// Injected faults bypass the memo: a poisoned session must never
		// publish — or be answered from — a content-addressed result. compile
		// admits only "panic", which session raises once the template is
		// built, so this branch always answers an error.
		ctx, cancel := context.WithDeadline(r.Context(), deadline)
		defer cancel()
		_, err = s.dispatch(ctx, cfg, kernel, req.Inject)
		s.writeRunError(w, err)
		return
	}
	result, hit, err := s.run(r.Context(), deadline, cfg, kernel, key)
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	s.ctr.completed.Add(1)
	if hit {
		s.ctr.cacheHits.Add(1)
	}
	writeResult(w, key, hit, result)
}

// errReader fails every read with err: the error that ended a body's read,
// replayed to the decoder after the bytes that came before it.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// writeRunError maps a failed session onto status, typed kind, and counters.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrSaturated):
		s.ctr.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, kindSaturated, "admission queue full; retry later")
	case errors.Is(err, ErrDraining):
		s.ctr.drained.Add(1)
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusServiceUnavailable, kindDraining, "server is draining")
	case errors.Is(err, omp.ErrAborted):
		s.ctr.aborted.Add(1)
		writeError(w, http.StatusGatewayTimeout, kindAborted, err.Error())
	case errors.Is(err, ErrSessionPanic):
		// counted at the session boundary, where the recover runs
		writeError(w, http.StatusInternalServerError, kindPanic, err.Error())
	default:
		s.ctr.failed.Add(1)
		writeError(w, http.StatusInternalServerError, kindInternal, err.Error())
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"status": status})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	type stats struct {
		Counters Counters `json:"counters"`
		Gauges   Gauges   `json:"gauges"`
		Workers  int      `json:"workers"`
		QueueCap int      `json:"queue_cap"`
		MemoLen  int      `json:"memo_len"`
		MemoCap  int      `json:"memo_cap"`
	}
	writeJSON(w, http.StatusOK, stats{
		Counters: s.Counters(),
		Gauges:   s.Gauges(),
		Workers:  s.cfg.Workers,
		QueueCap: s.cfg.Queue,
		MemoLen:  s.memo.Len(),
		MemoCap:  s.memo.Capacity(),
	})
}

// writeResult answers 200 with the Response envelope around result, the
// canonical JSON the memo stores, written as it is: the same bytes
// json.NewEncoder(w).Encode(Response{...}) would write for the decoded
// result, without decoding or re-encoding it. key is a hex content hash, so
// it needs no escaping.
func writeResult(w http.ResponseWriter, key string, cached bool, result []byte) {
	const head, tail = `{"key":"`, "}\n"
	mid := `","cached":false,"result":`
	if cached {
		mid = `","cached":true,"result":`
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(head)+len(key)+len(mid)+len(result)+len(tail)))
	w.WriteHeader(http.StatusOK)
	// Write errors mean the client went away; there is no one left to tell.
	_, _ = io.WriteString(w, head)
	_, _ = io.WriteString(w, key)
	_, _ = io.WriteString(w, mid)
	_, _ = w.Write(result)
	_, _ = io.WriteString(w, tail)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, kind errorKind, msg string) {
	writeJSON(w, code, map[string]ErrorBody{"error": {Kind: kind, Message: msg}})
}
