package ctlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"disttrain/internal/api"
	"disttrain/internal/metrics"
)

// NewMux builds the control plane's HTTP API on a standard ServeMux:
//
//	POST /v1/experiments              submit a spec, 202 + status
//	GET  /v1/experiments?state=...    list experiments
//	GET  /v1/experiments/{id}         one experiment's status
//	GET  /v1/experiments/{id}/metrics SSE metric stream (replay + live)
//	GET  /v1/experiments/{id}/result  the raw RunResult JSON
//	GET  /healthz                     liveness probe
//	GET  /metrics                     Prometheus-text operational metrics
//
// See docs/CONTROLPLANE.md for the full API reference.
func NewMux(s *Service) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		var spec api.ExperimentSpec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		if err := dec.Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decode spec: %w", err))
			return
		}
		st, err := s.Submit(spec)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, errQueueFull) {
				code = http.StatusServiceUnavailable
			}
			httpError(w, code, err)
			return
		}
		w.Header().Set("Location", "/v1/experiments/"+st.ID)
		writeJSON(w, http.StatusAccepted, st)
	})
	mux.HandleFunc("GET /v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List(r.URL.Query().Get("state")))
	})
	mux.HandleFunc("GET /v1/experiments/{id}", func(w http.ResponseWriter, r *http.Request) {
		st := s.Get(r.PathValue("id"))
		if st == nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown experiment %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/experiments/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		st := s.Get(r.PathValue("id"))
		switch {
		case st == nil:
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown experiment %q", r.PathValue("id")))
		case st.State == api.StateFailed:
			httpError(w, http.StatusConflict, fmt.Errorf("experiment %s failed: %s", st.ID, st.Error))
		case st.Result == nil:
			httpError(w, http.StatusConflict, fmt.Errorf("experiment %s is %s; no result yet", st.ID, st.State))
		default:
			// The result endpoint emits RunResult.WriteJSON verbatim — the
			// same bytes a direct core.Run export produces, which the
			// determinism e2e test compares byte-for-byte.
			w.Header().Set("Content-Type", "application/json")
			st.Result.WriteJSON(w)
		}
	})
	mux.HandleFunc("GET /v1/experiments/{id}/metrics", func(w http.ResponseWriter, r *http.Request) {
		hub := s.Hub(r.PathValue("id"))
		if hub == nil {
			httpError(w, http.StatusNotFound, fmt.Errorf("unknown experiment %q", r.PathValue("id")))
			return
		}
		serveSSE(w, r, hub)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		serveServiceMetrics(w, s)
	})
	return mux
}

// serveServiceMetrics renders one Prometheus-text scrape of the service's
// operational state (see docs/OBSERVABILITY.md for the metric reference).
func serveServiceMetrics(w http.ResponseWriter, s *Service) {
	sm := s.Metrics()
	w.Header().Set("Content-Type", metrics.PromContentType)
	e := metrics.NewPromEncoder(w)
	e.Family("disttrain_ctlplane_queue_depth", "Experiments accepted but not yet started.", "gauge")
	e.Sample("disttrain_ctlplane_queue_depth", nil, float64(sm.QueueDepth))
	e.Family("disttrain_ctlplane_worker_concurrency", "Size of the experiment worker pool.", "gauge")
	e.Sample("disttrain_ctlplane_worker_concurrency", nil, float64(sm.Concurrency))
	e.Family("disttrain_ctlplane_experiments", "Experiments known to the service, by lifecycle state.", "gauge")
	for _, st := range []string{api.StateQueued, api.StateRunning, api.StateDone, api.StateFailed} {
		e.Sample("disttrain_ctlplane_experiments",
			[]metrics.PromLabel{{Name: "state", Value: st}}, float64(sm.States[st]))
	}
	e.Family("disttrain_ctlplane_experiments_submitted_total", "Experiments accepted over this service incarnation's life (reloaded ones included).", "counter")
	e.Sample("disttrain_ctlplane_experiments_submitted_total", nil, float64(sm.Submitted))
}

// errQueueFull is Service.Submit's queue-full failure; the HTTP layer maps
// it to 503 (try again later) instead of the 400 a bad spec gets.
var errQueueFull = errors.New("ctlplane: submission queue full")

// serveSSE streams an experiment's metric points as server-sent events:
// each point is one `event: metric` with a JSON MetricPoint payload, and
// the stream finishes with `event: done` once the run completes. A
// subscriber joining late replays the full backlog first.
func serveSSE(w http.ResponseWriter, r *http.Request, hub *metricHub) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	n := 0
	for {
		pts, open := hub.Next(r.Context(), n)
		for _, p := range pts {
			data, err := json.Marshal(p)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: metric\ndata: %s\n\n", data); err != nil {
				return
			}
		}
		if len(pts) > 0 {
			fl.Flush()
		}
		n += len(pts)
		if !open {
			if r.Context().Err() == nil {
				fmt.Fprint(w, "event: done\ndata: {}\n\n")
				fl.Flush()
			}
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
