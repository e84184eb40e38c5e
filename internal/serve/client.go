package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// Client is the reference HTTP client for the service, implementing
// the retry contract the server advertises: transient failures (429
// queue-full, 503 draining) retry with exponential backoff honoring
// Retry-After; deterministic failures surface immediately.
type Client struct {
	BaseURL     string
	HTTP        *http.Client
	MaxRetries  int           // retry budget for transient failures (default 4)
	BaseBackoff time.Duration // first backoff step (default 50ms), doubled per retry
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Submit performs one request/response exchange. A non-200 with a
// decodable error envelope returns a *apiError; transport-level
// failures return the underlying error.
func (c *Client) Submit(ctx context.Context, req Request) (*Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var eb ErrorBody
		if jerr := json.Unmarshal(data, &eb); jerr != nil || eb.Error.Kind == "" {
			return nil, &apiError{Status: resp.StatusCode, Kind: KindTransport,
				Msg: fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))}
		}
		ae := &apiError{Status: resp.StatusCode, Kind: eb.Error.Kind, Msg: eb.Error.Message}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, perr := strconv.Atoi(ra); perr == nil {
				ae.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return nil, ae
	}
	var out Response
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SubmitRetry is Submit under the retry policy. It returns the number
// of retries spent alongside the outcome; a deterministic failure is
// never retried (the next attempt would only reach the same verdict,
// and likely the cache).
func (c *Client) SubmitRetry(ctx context.Context, req Request) (*Response, int, error) {
	var resp *Response
	retries, err := c.retry(ctx, func() (err error) {
		resp, err = c.Submit(ctx, req)
		return err
	})
	return resp, retries, err
}

// retry runs attempt under the retry policy: a transient failure
// (Retryable kind) is retried up to MaxRetries times after an
// exponential backoff from BaseBackoff, or after the server's
// Retry-After hint when that is longer. It returns the retries spent
// and the final outcome.
func (c *Client) retry(ctx context.Context, attempt func() error) (int, error) {
	maxRetries := c.MaxRetries
	if maxRetries == 0 {
		maxRetries = 4
	}
	backoff := c.BaseBackoff
	if backoff == 0 {
		backoff = 50 * time.Millisecond
	}
	for n := 0; ; n++ {
		err := attempt()
		if err == nil {
			return n, nil
		}
		var ae *apiError
		if !errors.As(err, &ae) || !ae.Kind.Retryable() || n >= maxRetries {
			return n, err
		}
		wait := backoff << n
		if ae.RetryAfter > wait {
			wait = ae.RetryAfter
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return n, context.Cause(ctx)
		}
	}
}
