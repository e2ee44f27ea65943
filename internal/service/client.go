package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"qfe/internal/retry"
)

// Client is the retrying client of the session API that NewHandler serves,
// for a qfe-server or a qfe-router in front of several. It is the inverse
// of writeErr: 404 comes back as ErrNotFound and 409 as ErrSeqAhead, both
// permanent; 429, 502, 503, 504, transport errors and cut-off bodies are
// retried under retry.Policy (capped exponential backoff, full jitter)
// until the budget runs out; any other status is permanent and carries the
// server's error text. A retried feedback is never applied twice: its seq
// names the round it answers. A Client is safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	policy  retry.Policy
	retries atomic.Int64
}

// NewClient returns a client for the API at base (e.g.
// "http://127.0.0.1:8080"). hc makes each attempt, so its Timeout bounds
// one attempt and its Transport may inject faults; retryFor bounds the
// whole retry loop of one call, sleeps included.
func NewClient(base string, hc *http.Client, retryFor time.Duration) *Client {
	c := &Client{base: base, hc: hc}
	c.policy = retry.Policy{
		Cap:     400 * time.Millisecond,
		Budget:  retryFor,
		OnRetry: func(int, error, time.Duration) { c.retries.Add(1) },
	}
	return c
}

// Retries counts the attempts this client has retried, over all calls.
func (c *Client) Retries() int64 { return c.retries.Load() }

// Create starts a session (POST /sessions) and returns its first status.
// A request that names no session is given a fresh id before the first
// attempt, so a retry after a lost acknowledgement reads the session the
// first attempt created instead of starting a second one.
func (c *Client) Create(ctx context.Context, req CreateRequest) (*SessionJSON, error) {
	if req.SessionID == "" {
		req.SessionID = newID()
	}
	var st SessionJSON
	if err := c.do(ctx, http.MethodPost, "/sessions", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Feedback answers round seq of session id with choice (0-based, or -1 for
// none of these) and returns the next status. A retry after a lost
// acknowledgement is answered with the current status, never applied
// twice.
func (c *Client) Feedback(ctx context.Context, id string, seq, choice int) (*SessionJSON, error) {
	var st SessionJSON
	if err := c.do(ctx, http.MethodPost, "/sessions/"+id+"/feedback",
		FeedbackRequest{Choice: choice, Seq: seq}, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Abandon deletes session id (DELETE /sessions/{id}).
func (c *Client) Abandon(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/sessions/"+id, nil, nil)
}

// do sends one JSON request under the retry policy and decodes a 2xx
// response into out (nil = ignore the body).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return err
		}
	}
	return c.policy.Do(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(payload))
		if err != nil {
			return retry.Permanent(err)
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return fmt.Errorf("service: %s %s: %w", method, path, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			// Cut off between headers and body: as good as a lost request.
			return fmt.Errorf("service: %s %s: reading response: %w", method, path, err)
		}
		if resp.StatusCode >= 300 {
			return statusErr(method, path, resp.StatusCode, data)
		}
		if out == nil {
			return nil
		}
		if err := json.Unmarshal(data, out); err != nil {
			return retry.Permanent(fmt.Errorf("service: %s %s: decoding response: %w", method, path, err))
		}
		return nil
	})
}

// statusErr maps a non-2xx response back to the error writeErr made it
// from.
func statusErr(method, path string, code int, body []byte) error {
	var apiErr apiError
	if json.Unmarshal(body, &apiErr) != nil || apiErr.Error == "" {
		apiErr.Error = http.StatusText(code)
	}
	switch code {
	case http.StatusNotFound:
		return retry.Permanent(fmt.Errorf("%w: %s %s: %s", ErrNotFound, method, path, apiErr.Error))
	case http.StatusConflict:
		return retry.Permanent(fmt.Errorf("%w: %s %s: %s", ErrSeqAhead, method, path, apiErr.Error))
	}
	err := fmt.Errorf("service: %s %s: status %d: %s", method, path, code, apiErr.Error)
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return err
	}
	return retry.Permanent(err)
}
