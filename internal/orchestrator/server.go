package orchestrator

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/faultinject"
)

// Paths of the control-plane endpoints.
const (
	PathRegister  = "/v1/register"
	PathLease     = "/v1/lease"
	PathHeartbeat = "/v1/heartbeat"
	PathResult    = "/v1/result"
	PathStatus    = "/v1/status"
	PathSubmit    = "/v1/campaigns/submit"
	PathList      = "/v1/campaigns/list"
	PathStop      = "/v1/campaigns/stop"
	PathDrain     = "/v1/drain"
)

// maxRequestBytes bounds a control-plane request body. The largest
// legitimate request is a unit result, whose gob-encoded statistics take
// tens of kilobytes; even a coverage map at the site registry's bound
// (coverage.MaxSites) is 1 MiB. Larger bodies are a hard 400.
const maxRequestBytes = 8 << 20

// NewServer wraps a campaign manager in the HTTP+JSON control plane.
// Every handler passes the "orch.server" fault point first, so tests can
// make the coordinator drop requests (500) deterministically and prove
// the client-side retry path.
//
// Admission errors map onto HTTP statuses the client understands:
//
//	401 bad token            hard — a new token is needed, not a retry
//	429 client quota         transient — Retry-After carries the backoff
//	                         hint the client's jittered schedule honors
//	503 draining             transient — this process is going away; the
//	                         bounded retry fails fast
//	400 anything else        hard — bad spec, unknown campaign, ...
//
// The Retry-After hint is the manager's poll interval in whole seconds,
// at least one.
func NewServer(m *Manager) http.Handler {
	retryAfter := strconv.Itoa(max(1, int(m.cfg.PollInterval.Seconds())))
	mux := http.NewServeMux()
	mux.HandleFunc(PathRegister, func(w http.ResponseWriter, r *http.Request) {
		handle(w, r, retryAfter, func(req RegisterRequest) (RegisterResponse, error) {
			return m.Register(req), nil
		})
	})
	mux.HandleFunc(PathLease, func(w http.ResponseWriter, r *http.Request) {
		handle(w, r, retryAfter, func(req LeaseRequest) (LeaseResponse, error) {
			return m.Lease(req), nil
		})
	})
	mux.HandleFunc(PathHeartbeat, func(w http.ResponseWriter, r *http.Request) {
		handle(w, r, retryAfter, func(req HeartbeatRequest) (HeartbeatResponse, error) {
			return m.Heartbeat(req), nil
		})
	})
	mux.HandleFunc(PathResult, func(w http.ResponseWriter, r *http.Request) {
		handle(w, r, retryAfter, m.Result)
	})
	mux.HandleFunc(PathStatus, func(w http.ResponseWriter, r *http.Request) {
		handle(w, r, retryAfter, m.Status)
	})
	mux.HandleFunc(PathSubmit, func(w http.ResponseWriter, r *http.Request) {
		handle(w, r, retryAfter, m.Submit)
	})
	mux.HandleFunc(PathList, func(w http.ResponseWriter, r *http.Request) {
		handle(w, r, retryAfter, func(req ListRequest) (ListResponse, error) {
			if _, err := m.cfg.Auth.Authorize(req.Token); err != nil {
				return ListResponse{}, err
			}
			return m.List(), nil
		})
	})
	mux.HandleFunc(PathStop, func(w http.ResponseWriter, r *http.Request) {
		handle(w, r, retryAfter, m.Stop)
	})
	mux.HandleFunc(PathDrain, func(w http.ResponseWriter, r *http.Request) {
		handle(w, r, retryAfter, func(req DrainRequest) (DrainResponse, error) {
			if _, err := m.cfg.Auth.Authorize(req.Token); err != nil {
				return DrainResponse{}, err
			}
			return DrainResponse{Campaigns: m.Drain()}, nil
		})
	})
	return mux
}

// handle decodes a JSON request body, runs fn, and encodes the response.
// Handler errors map to HTTP statuses via httpStatusFor; 429s carry the
// Retry-After hint (in seconds).
func handle[Req, Resp any](w http.ResponseWriter, r *http.Request, retryAfter string, fn func(Req) (Resp, error)) {
	if err := faultinject.FireErr("orch.server"); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	var req Req
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	resp, err := fn(req)
	if err != nil {
		status := httpStatusFor(err)
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", retryAfter)
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, resp)
}

// httpStatusFor maps admission errors onto the statuses documented on
// NewServer. Everything unrecognized is a 400: a caller mistake, not
// transient server state, so clients must not retry it.
func httpStatusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnauthorized):
		return http.StatusUnauthorized
	case errors.Is(err, ErrQuotaExceeded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrCampaignFault):
		return http.StatusInternalServerError
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
