package regexrwclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"regexrw/internal/cluster"
)

// Client talks to one replica or a cluster of replicas. With multiple
// servers it builds the same consistent-hash ring the replicas use, so
// a request is dialed straight at the replica owning its plan key —
// a warm cache hit with no server-side forwarding hop. Any replica can
// serve any request, so every other replica is a fallback.
//
// A Client is safe for concurrent use.
type Client struct {
	servers []string
	ring    *cluster.Ring // nil for a single server
	hc      *http.Client
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient replaces the default HTTP client (10s timeout). For
// streaming /v1/query responses prefer a client without an overall
// timeout and bound the request with a context instead.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// New builds a client for the given replica addresses (host:port or
// full URLs). One address means direct single-server mode; several
// mean cluster mode with ring-based routing. The address list must
// match the servers' -peers list for client-side placement to agree
// with the cluster's — when it does not, the not_owner redirect
// protocol corrects the client at the cost of one extra hop.
func New(servers []string, opts ...Option) (*Client, error) {
	if len(servers) == 0 {
		return nil, errors.New("regexrwclient: no server addresses")
	}
	c := &Client{
		servers: append([]string(nil), servers...),
		hc:      &http.Client{Timeout: 10 * time.Second},
	}
	for _, o := range opts {
		o(c)
	}
	if len(c.servers) > 1 {
		r, err := cluster.NewRing(c.servers, cluster.DefaultVirtualNodes)
		if err != nil {
			return nil, fmt.Errorf("regexrwclient: %w", err)
		}
		c.ring = r
	}
	return c, nil
}

// ParseServers splits a comma-separated -server flag value into a
// server list, trimming blanks.
func ParseServers(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// Servers returns the configured replica addresses.
func (c *Client) Servers() []string { return append([]string(nil), c.servers...) }

// APIError is a non-2xx response (or mid-stream error line) decoded
// from the standard envelope.
type APIError struct {
	// Status is the HTTP status; 200 for a mid-stream /v1/query error
	// line (the stream was already committed when the error happened).
	Status int
	Detail ErrorDetail
}

func (e *APIError) Error() string {
	return fmt.Sprintf("server error (HTTP %d): %s", e.Status, e.Detail.Error())
}

// Rewrite posts a rewrite request to the cluster and decodes the plan.
func (c *Client) Rewrite(ctx context.Context, req RewriteRequest) (*PlanResponse, error) {
	key := c.routeKey(req.PlanKey)
	var out PlanResponse
	hdr, err := c.postJSON(ctx, "/v1/rewrite", key, req, &out)
	if err != nil {
		return nil, err
	}
	if hdr.Get(cluster.DegradedHeader) != "" {
		out.Degraded = true
	}
	return &out, nil
}

// RPQ posts a regular-path-query rewrite request.
func (c *Client) RPQ(ctx context.Context, req RPQRequest) (*PlanResponse, error) {
	key := c.routeKey(req.PlanKey)
	var out PlanResponse
	hdr, err := c.postJSON(ctx, "/v1/rpq", key, req, &out)
	if err != nil {
		return nil, err
	}
	if hdr.Get(cluster.DegradedHeader) != "" {
		out.Degraded = true
	}
	return &out, nil
}

// QueryResult summarizes a streamed /v1/query response.
type QueryResult struct {
	Header    QueryHeader
	Answers   int
	Truncated bool
	// Matched is set on boolean queries (source and target given).
	Matched *bool
	// Degraded reports the answering replica computed a plan it does
	// not own because the owner was unreachable.
	Degraded bool
}

// Query streams a graph query: fn is called once per answer pair in
// stream order (a nil fn just counts). Errors before the stream
// commits surface as *APIError with the real HTTP status; mid-stream
// error lines surface as *APIError with Status 200 after fn has seen
// every answer that preceded the failure.
func (c *Client) Query(ctx context.Context, req QueryRequest, fn func(QueryAnswer) error) (*QueryResult, error) {
	key := c.routeKey(req.PlanKey)
	resp, err := c.post(ctx, "/v1/query", key, req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeAPIError(resp)
	}
	res := &QueryResult{Degraded: resp.Header.Get(cluster.DegradedHeader) != ""}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	sawTrailer := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return res, fmt.Errorf("regexrwclient: malformed stream line: %w", err)
		}
		switch probe.Type {
		case "header":
			if err := json.Unmarshal(line, &res.Header); err != nil {
				return res, fmt.Errorf("regexrwclient: header: %w", err)
			}
			if res.Header.Degraded {
				res.Degraded = true
			}
		case "answer":
			var a QueryAnswer
			if err := json.Unmarshal(line, &a); err != nil {
				return res, fmt.Errorf("regexrwclient: answer: %w", err)
			}
			res.Answers++
			if fn != nil {
				if err := fn(a); err != nil {
					return res, err
				}
			}
		case "trailer":
			var t QueryTrailer
			if err := json.Unmarshal(line, &t); err != nil {
				return res, fmt.Errorf("regexrwclient: trailer: %w", err)
			}
			res.Truncated = t.Truncated
			res.Matched = t.Matched
			sawTrailer = true
		case "error":
			var el QueryErrorLine
			if err := json.Unmarshal(line, &el); err != nil {
				return res, fmt.Errorf("regexrwclient: error line: %w", err)
			}
			return res, &APIError{Status: resp.StatusCode, Detail: el.Error}
		default:
			return res, fmt.Errorf("regexrwclient: unknown stream line type %q", probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return res, fmt.Errorf("regexrwclient: stream: %w", err)
	}
	if !sawTrailer {
		return res, errors.New("regexrwclient: stream ended without trailer or error line")
	}
	return res, nil
}

// RegisterGraph registers a named graph on every replica: graphs are
// per-replica state, and any replica may end up answering a query in
// degraded mode, so registration fans out instead of routing.
func (c *Client) RegisterGraph(ctx context.Context, req RegisterGraphRequest) (*GraphInfo, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("regexrwclient: encode: %w", err)
	}
	var info GraphInfo
	ok := 0
	var lastErr error
	for _, srv := range c.servers {
		resp, err := c.roundTrip(ctx, srv, "/v1/graphs", nil, body)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			lastErr = decodeAPIError(resp)
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			lastErr = fmt.Errorf("regexrwclient: decode: %w", err)
			continue
		}
		ok++
	}
	if ok == 0 {
		return nil, fmt.Errorf("regexrwclient: graph registration failed on every replica: %w", lastErr)
	}
	return &info, nil
}

// Graphs lists the graphs registered on the first reachable replica.
func (c *Client) Graphs(ctx context.Context) ([]GraphInfo, error) {
	var lastErr error
	for _, srv := range c.servers {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, cluster.PeerURL(srv, "/v1/graphs"), nil)
		if err != nil {
			return nil, err
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode != http.StatusOK {
			lastErr = decodeAPIError(resp)
			continue
		}
		var out struct {
			Graphs []GraphInfo `json:"graphs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("regexrwclient: decode: %w", err)
		}
		return out.Graphs, nil
	}
	return nil, fmt.Errorf("regexrwclient: every replica unreachable: %w", lastErr)
}

// routeKey returns the plan key a request routes by. Only a ring uses
// it, so a single-server client neither parses nor hashes the request.
// A key error routes nowhere in particular: the server answers it 400.
func (c *Client) routeKey(planKey func() (string, error)) string {
	if c.ring == nil {
		return ""
	}
	key, _ := planKey()
	return key
}

// postJSON posts and decodes a JSON response body, returning the
// response headers for degraded-mode detection.
func (c *Client) postJSON(ctx context.Context, path, key string, body, out any) (http.Header, error) {
	resp, err := c.post(ctx, path, key, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, decodeAPIError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return nil, fmt.Errorf("regexrwclient: decode: %w", err)
	}
	return resp.Header, nil
}

// post routes a request body to the cluster. The routing ladder:
//
//  1. Dial the ring owner of key with a no-forward marker — if the
//     client's placement is stale the server answers 421 not_owner
//     naming the true owner rather than forwarding, and the client
//     re-dials that owner once.
//  2. On transport failure, fall back to the remaining replicas in
//     ring order without the marker: the fallback replica forwards to
//     the owner itself, or degrades to local compute if it must.
//
// Without a ring (single server, or no computable key) the servers
// are tried in configured order without the marker.
func (c *Client) post(ctx context.Context, path, key string, body any) (*http.Response, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("regexrwclient: encode: %w", err)
	}
	order := c.servers
	routed := false
	if c.ring != nil && key != "" {
		owner := c.ring.Owner(key)
		order = append([]string{owner}, c.ring.Others(owner)...)
		routed = true
	}
	var lastErr error
	for i, srv := range order {
		hdr := http.Header{}
		if routed && i == 0 && len(order) > 1 {
			hdr.Set(cluster.NoForwardHeader, "1")
		}
		resp, err := c.roundTrip(ctx, srv, path, hdr, payload)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.StatusCode == http.StatusMisdirectedRequest {
			// Client-side placement disagreed with the cluster's: follow
			// the owner the server named, once, with forwarding allowed.
			apiErr := decodeAPIError(resp)
			var ae *APIError
			if errors.As(apiErr, &ae) && ae.Detail.Code == CodeNotOwner && ae.Detail.Owner != "" {
				r2, err2 := c.roundTrip(ctx, ae.Detail.Owner, path, nil, payload)
				if err2 == nil {
					return r2, nil
				}
				lastErr = err2
				continue
			}
			lastErr = apiErr
			continue
		}
		return resp, nil
	}
	return nil, fmt.Errorf("regexrwclient: every replica unreachable: %w", lastErr)
}

// roundTrip posts one request to one server.
func (c *Client) roundTrip(ctx context.Context, server, path string, hdr http.Header, payload []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cluster.PeerURL(server, path), bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	req.Header.Set("Content-Type", "application/json")
	return c.hc.Do(req)
}

// decodeAPIError drains a non-2xx response into an *APIError and
// closes the body.
func decodeAPIError(resp *http.Response) error {
	defer resp.Body.Close()
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env ErrorEnvelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error.Code == "" {
		return &APIError{
			Status: resp.StatusCode,
			Detail: ErrorDetail{Code: CodeInternal, Message: strings.TrimSpace(string(raw))},
		}
	}
	return &APIError{Status: resp.StatusCode, Detail: env.Error}
}
