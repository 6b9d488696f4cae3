package orchestrator

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/backoff"
	"repro/internal/faultinject"
)

// Client is the worker-side view of the control plane. Every call
// retries transport failures and 5xx responses with seeded-jittered
// exponential backoff; protocol-level rejections (fenced, 4xx) are
// returned immediately — retrying a fenced call can never succeed.
type Client struct {
	// BaseURL is the coordinator address, e.g. "http://127.0.0.1:8377".
	BaseURL string
	// HTTP is the transport; nil selects a client with a 10s per-attempt
	// timeout.
	HTTP *http.Client
	// Retry shapes the per-call retry schedule. NewClient selects
	// 100ms..5s with 0.5 jitter seeded from the worker name.
	Retry backoff.Policy
	// Sleep replaces time.Sleep between retries (tests stub it).
	Sleep func(time.Duration)
	// Logf, when non-nil, receives retry log lines.
	Logf func(format string, args ...any)
}

// NewClient returns a client for the coordinator at baseURL with the
// retry stream seeded from the worker identity, so a fleet's retry
// schedules decorrelate deterministically.
func NewClient(baseURL, worker string) *Client {
	h := fnv.New64a()
	_, _ = h.Write([]byte(worker))
	return &Client{
		BaseURL: baseURL,
		HTTP:    &http.Client{Timeout: 10 * time.Second},
		Retry: backoff.Policy{
			Base: 100 * time.Millisecond, Max: 5 * time.Second,
			Jitter: 0.5, Seed: int64(h.Sum64()),
		},
	}
}

// callAttempts bounds the tries per control-plane call.
const callAttempts = 5

// transientError marks a failure worth retrying (network error, 5xx, or
// a 429 over-quota rejection). A 429's Retry-After header rides along as
// hint; the retry loop stretches its backoff to honor it.
type transientError struct {
	err  error
	hint time.Duration
}

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// Register announces the worker.
func (c *Client) Register(req RegisterRequest) (RegisterResponse, error) {
	var resp RegisterResponse
	err := c.call(PathRegister, req, &resp)
	return resp, err
}

// Lease requests a work unit.
func (c *Client) Lease(req LeaseRequest) (LeaseResponse, error) {
	var resp LeaseResponse
	err := c.call(PathLease, req, &resp)
	return resp, err
}

// Heartbeat keeps a lease alive.
func (c *Client) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	err := c.call(PathHeartbeat, req, &resp)
	return resp, err
}

// Result submits a completed unit.
func (c *Client) Result(req ResultRequest) (ResultResponse, error) {
	var resp ResultResponse
	err := c.call(PathResult, req, &resp)
	return resp, err
}

// Status fetches one campaign's lease-table snapshot. An empty campaign
// resolves to the only campaign when exactly one exists.
func (c *Client) Status(campaign string) (StatusResponse, error) {
	var resp StatusResponse
	err := c.call(PathStatus, StatusRequest{Campaign: campaign}, &resp)
	return resp, err
}

// Submit submits a new campaign.
func (c *Client) Submit(req SubmitRequest) (SubmitResponse, error) {
	var resp SubmitResponse
	err := c.call(PathSubmit, req, &resp)
	return resp, err
}

// Campaigns lists the campaign registry.
func (c *Client) Campaigns(req ListRequest) (ListResponse, error) {
	var resp ListResponse
	err := c.call(PathList, req, &resp)
	return resp, err
}

// StopCampaign stops one campaign (no new leases; in-flight units
// resolve; the campaign completes with partial results).
func (c *Client) StopCampaign(req StopRequest) (StopResponse, error) {
	var resp StopResponse
	err := c.call(PathStop, req, &resp)
	return resp, err
}

// Drain asks the whole coordinator to drain and exit cleanly.
func (c *Client) Drain(req DrainRequest) (DrainResponse, error) {
	var resp DrainResponse
	err := c.call(PathDrain, req, &resp)
	return resp, err
}

func (c *Client) http() *http.Client {
	if c.HTTP == nil {
		c.HTTP = &http.Client{Timeout: 10 * time.Second}
	}
	return c.HTTP
}

// call POSTs req as JSON and decodes the response into resp, retrying
// transient failures with the client's backoff schedule.
func (c *Client) call(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("orchestrator: client: encode %s: %w", path, err)
	}
	return c.retry(path, func() error {
		return c.attemptOnce(path, body, resp)
	})
}

// retry runs one attempt function under the client's backoff schedule.
// Only *transientError (network failure, 5xx, 429) is retried; a
// hard error — a protocol rejection — aborts immediately, because
// retrying it can never succeed. A 429's Retry-After hint stretches the
// next delay through Policy.DelayWithHint: the fleet still spreads over
// the jitter envelope, but never comes back before the server asked.
func (c *Client) retry(path string, attemptFn func() error) error {
	var last *transientError
	for n := 1; n <= callAttempts; n++ {
		err := attemptFn()
		if err == nil {
			return nil
		}
		te, transient := err.(*transientError)
		if !transient {
			return err
		}
		last = te
		if n == callAttempts {
			break
		}
		d := c.Retry.DelayWithHint(n, te.hint)
		if c.Logf != nil {
			c.Logf("call %s attempt %d failed (retrying in %v): %v", path, n, d, err)
		}
		c.sleep(d)
	}
	return last.err
}

func (c *Client) sleep(d time.Duration) {
	if c.Sleep != nil {
		c.Sleep(d)
		return
	}
	time.Sleep(d)
}

// attemptOnce is one POST round-trip. The "orch.client" fault point lets
// tests fail attempts deterministically before any network I/O.
func (c *Client) attemptOnce(path string, body []byte, resp any) error {
	if err := faultinject.FireErr("orch.client"); err != nil {
		return &transientError{err: err}
	}
	httpResp, err := c.http().Post(c.BaseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return &transientError{err: err}
	}
	return decodeResponse(httpResp, resp)
}

// decodeResponse maps an HTTP response onto the caller's struct. 5xx is
// transient (retry); 429 is transient carrying the server's Retry-After
// hint (a client quota clears as its campaigns finish — the right
// reaction is a longer wait, not a failure); anything else non-200 is a
// hard protocol error.
func decodeResponse(httpResp *http.Response, resp any) error {
	defer httpResp.Body.Close()
	if httpResp.StatusCode == http.StatusTooManyRequests {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 512))
		var hint time.Duration
		if secs, err := strconv.Atoi(httpResp.Header.Get("Retry-After")); err == nil && secs > 0 {
			hint = time.Duration(secs) * time.Second
		}
		return &transientError{
			err:  fmt.Errorf("orchestrator: coordinator asked to retry later (429): %s", bytes.TrimSpace(msg)),
			hint: hint,
		}
	}
	if httpResp.StatusCode >= 500 {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 512))
		return &transientError{err: fmt.Errorf("orchestrator: server error %d: %s", httpResp.StatusCode, bytes.TrimSpace(msg))}
	}
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 512))
		return fmt.Errorf("orchestrator: coordinator rejected call (%d): %s", httpResp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(httpResp.Body).Decode(resp); err != nil {
		return &transientError{err: fmt.Errorf("orchestrator: decode response: %w", err)}
	}
	return nil
}
