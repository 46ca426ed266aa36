package campaignd

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Handler returns the daemon's HTTP API:
//
//	POST /campaigns            submit a Spec; returns {"id": ...}
//	GET  /campaigns            list campaign summaries
//	GET  /campaigns/{id}       live status (?waitMs=N long-polls for completion)
//	GET  /campaigns/{id}/result final report (409 until the campaign finishes)
//	POST /lease                worker long-poll for a lease
//	POST /results              worker result submission; answers with the next lease
//	GET  /metrics              counter snapshot + gauges
//	GET  /debug/pprof/...      standard pprof surface
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleStatus)
	mux.HandleFunc("GET /campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("POST /lease", s.handleLease)
	mux.HandleFunc("POST /results", s.handleResults)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// decodeBody decodes the request body into v (strict: a field v does
// not declare is an error), answering 400 on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, strict bool) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	if strict {
		dec.DisallowUnknownFields()
	}
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Specs are written by hand and by scripts, so a misspelt or retired
	// field is refused by name; WireSchema versions the worker bodies.
	var spec Spec
	if !decodeBody(w, r, &spec, true) {
		return
	}
	id, err := s.Submit(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{
		"id":     id,
		"status": "/campaigns/" + id,
		"result": "/campaigns/" + id + "/result",
	})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]map[string]any, 0, len(s.order))
	for _, c := range s.order {
		out = append(out, s.summaryLocked(c))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// summaryLocked is one campaign's list/status payload; callers hold mu.
func (s *Server) summaryLocked(c *campaign) map[string]any {
	prog := c.state.Progress()
	outstanding := 0
	for _, b := range c.batches {
		outstanding += b.pending
	}
	m := map[string]any{
		"id":       c.id,
		"mode":     c.state.Config().Mode.String(),
		"baseSeed": c.spec.BaseSeed,
		"progress": prog,
		"aborted":  c.aborted,
		"finished": c.finished(),
	}
	if len(c.batches) > 0 {
		m["inFlightBatch"] = c.batches[0].index
		m["outstandingLeases"] = outstanding
	}
	return m
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	c := s.campaigns[r.PathValue("id")]
	s.mu.Unlock()
	if c == nil {
		writeError(w, http.StatusNotFound, errNoCampaign(r.PathValue("id")))
		return
	}
	if ms, _ := strconv.ParseInt(r.URL.Query().Get("waitMs"), 10, 64); ms > 0 {
		t := time.NewTimer(clampWait(ms))
		select {
		case <-c.done:
		case <-t.C:
		case <-r.Context().Done():
		}
		t.Stop()
	}
	s.mu.Lock()
	out := s.summaryLocked(c)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	c := s.campaigns[r.PathValue("id")]
	var report map[string]any
	if c != nil {
		report = c.report
	}
	s.mu.Unlock()
	switch {
	case c == nil:
		writeError(w, http.StatusNotFound, errNoCampaign(r.PathValue("id")))
	case report == nil:
		writeJSON(w, http.StatusConflict, map[string]string{"error": "campaign still running"})
	default:
		writeJSON(w, http.StatusOK, report)
	}
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decodeBody(w, r, &req, false) {
		return
	}
	if req.Schema != WireSchema {
		writeError(w, http.StatusBadRequest, errSchema(req.Schema))
		return
	}
	worker := req.Worker
	if worker == "" {
		worker = r.RemoteAddr
	}
	resp := s.nextLease(worker, clampWait(req.WaitMs))
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleResults(w http.ResponseWriter, r *http.Request) {
	var res LeaseResult
	if !decodeBody(w, r, &res, false) {
		return
	}
	if res.Worker == "" {
		res.Worker = r.RemoteAddr
	}
	resp, err := s.submitResult(&res)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	out := s.metrics.snapshot()
	s.mu.Lock()
	ids := make(map[string]struct{}, len(s.pollers))
	for id := range s.pollers {
		ids[id] = struct{}{}
	}
	running := 0
	for _, c := range s.order {
		if !c.finished() {
			running++
		}
		for _, b := range c.batches {
			for _, sh := range b.shards {
				if sh.issued && !sh.done {
					ids[sh.worker] = struct{}{}
				}
			}
		}
	}
	out["activeWorkers"] = len(ids)
	out["campaignsRunning"] = running
	out["draining"] = s.draining
	if s.opts.Store != nil {
		out["storeObjects"] = s.opts.Store.Len()
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// clampWait bounds client-supplied long-poll waits to [0, 2min].
func clampWait(ms int64) time.Duration {
	if ms < 0 {
		ms = 0
	}
	if ms > 120_000 {
		ms = 120_000
	}
	return time.Duration(ms) * time.Millisecond
}

type errNoCampaign string

func (e errNoCampaign) Error() string { return "no campaign " + string(e) }

type errSchema int

func (e errSchema) Error() string {
	return "campaignd: wire schema " + strconv.Itoa(int(e)) +
		" refused: the daemon speaks schema " + strconv.Itoa(WireSchema)
}
