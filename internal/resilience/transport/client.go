package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sharedopt/internal/obs"
	"sharedopt/internal/resilience"
)

// ClientConfig configures a ShardClient.
type ClientConfig struct {
	// Dial opens a connection to the shard's server. It is re-invoked
	// after every connection loss, so a closure reading a mutable
	// address lets a test restart the server elsewhere, and a wrapper
	// around the returned conn can inject network faults.
	Dial func() (net.Conn, error)
	// CallTimeout bounds calls whose context has no deadline of its
	// own. 0 means 2s.
	CallTimeout time.Duration
	// Retry shapes the bounded retry of unavailable attempts inside one
	// call (seeded jitter and all — see resilience.Backoff). The
	// call's context deadline caps the whole loop regardless.
	Retry resilience.Backoff
	// Breaker, when set, wraps every attempt: consecutive unavailable
	// outcomes trip it and further attempts fail fast. Nil disables.
	Breaker *Breaker
	// Obs, when set, registers the shard<Shard>.net_* metrics.
	Obs *obs.Registry
	// Shard names the metric prefix; it does not affect routing.
	Shard int
}

// netMetrics is the client's metric set (see the name contract in
// internal/resilience/obs.go). The zero value is the disabled form.
type netMetrics struct {
	requests *obs.Counter
	failures *obs.Counter
	retries  *obs.Counter
	redials  *obs.Counter
	strays   *obs.Counter
	rtt      *obs.Histogram
}

func newNetMetrics(reg *obs.Registry, shard int) netMetrics {
	p := fmt.Sprintf("shard%d", shard)
	return netMetrics{
		requests: reg.Counter(p + ".net_requests"),
		failures: reg.Counter(p + ".net_failures"),
		retries:  reg.Counter(p + ".net_retries"),
		redials:  reg.Counter(p + ".net_redials"),
		strays:   reg.Counter(p + ".net_stray_replies"),
		rtt:      reg.Histogram(p+".net_rtt_ns", nil),
	}
}

// ShardClient implements resilience.ShardTransport over one TCP
// connection per liveness epoch: calls multiplex onto the connection by
// request ID, a reader goroutine routes replies back to waiters, and a
// lost connection fails every in-flight call unavailable and is redialed
// lazily by the next attempt. Safe for concurrent use.
type ShardClient struct {
	cfg ClientConfig
	om  netMetrics

	mu     sync.Mutex // connection state
	conn   net.Conn
	q      *frameQueue
	gen    uint64
	closed bool

	pmu     sync.Mutex // reply routing
	pending map[uint64]chan response

	nextID atomic.Uint64
}

// NewShardClient builds a client; the first call dials.
func NewShardClient(cfg ClientConfig) (*ShardClient, error) {
	if cfg.Dial == nil {
		return nil, errors.New("transport: ClientConfig.Dial is required")
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 2 * time.Second
	}
	return &ShardClient{
		cfg:     cfg,
		om:      newNetMetrics(cfg.Obs, cfg.Shard),
		pending: make(map[uint64]chan response),
	}, nil
}

// Close severs the connection and fails every in-flight call. Calls
// after Close return ErrShardUnavailable.
func (c *ShardClient) Close() {
	c.mu.Lock()
	c.closed = true
	conn, gen := c.conn, c.gen
	c.mu.Unlock()
	if conn != nil {
		c.teardown(gen)
	}
}

// Submit implements resilience.ShardTransport.
func (c *ShardClient) Submit(ctx context.Context, rec resilience.Record) (resilience.SubmitResult, error) {
	resp, err := c.call(ctx, request{Op: opSubmit, Rec: &rec})
	if err != nil {
		return resilience.SubmitResult{}, err
	}
	if resp.Result == nil {
		// A success frame without its payload: treat as no decision and
		// let the retry path re-ask (dedup makes that safe).
		return resilience.SubmitResult{}, fmt.Errorf("%w: submit reply without result", resilience.ErrShardUnavailable)
	}
	return *resp.Result, nil
}

// Advance implements resilience.ShardTransport.
func (c *ShardClient) Advance(ctx context.Context, window int) error {
	_, err := c.call(ctx, request{Op: opAdv, Window: window})
	return err
}

// ClosePeriod implements resilience.ShardTransport.
func (c *ShardClient) ClosePeriod(ctx context.Context) error {
	_, err := c.call(ctx, request{Op: opClose})
	return err
}

// Stats implements resilience.ShardTransport.
func (c *ShardClient) Stats(ctx context.Context) (resilience.ShardInfo, error) {
	resp, err := c.call(ctx, request{Op: opStats})
	if err != nil {
		return resilience.ShardInfo{}, err
	}
	if resp.Info == nil {
		return resilience.ShardInfo{}, fmt.Errorf("%w: stats reply without info", resilience.ErrShardUnavailable)
	}
	return *resp.Info, nil
}

// call runs one logical call: bounded seeded-backoff retries of
// unavailable attempts under the context deadline (applying CallTimeout
// when the caller brought none). The returned error keeps the transport
// contract: anything short of a shard verdict wraps
// ErrShardUnavailable.
func (c *ShardClient) call(ctx context.Context, req request) (response, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.CallTimeout)
		defer cancel()
	}
	var resp response
	attempts := 0
	err := resilience.RetryIf(ctx, c.cfg.Retry, func(err error) bool {
		return errors.Is(err, resilience.ErrShardUnavailable)
	}, func() error {
		if attempts++; attempts > 1 {
			c.om.retries.Inc()
		}
		var aerr error
		resp, aerr = c.attempt(ctx, req)
		return aerr
	})
	if err != nil {
		// RetryIf reports an expired context bare when it fires before
		// the first attempt; fold it into the contract.
		if !errors.Is(err, resilience.ErrShardUnavailable) &&
			(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
			err = fmt.Errorf("%w: %w", resilience.ErrShardUnavailable, err)
		}
		if errors.Is(err, resilience.ErrShardUnavailable) {
			c.om.failures.Inc()
		}
		return response{}, err
	}
	return resp, nil
}

// attempt is one wire round trip, gated by the breaker when configured.
func (c *ShardClient) attempt(ctx context.Context, req request) (response, error) {
	var resp response
	err := c.cfg.Breaker.Do(func() error {
		var aerr error
		resp, aerr = c.roundTrip(ctx, req)
		return aerr
	})
	return resp, err
}

// roundTrip sends one request frame and waits for its reply.
func (c *ShardClient) roundTrip(ctx context.Context, req request) (response, error) {
	start := time.Now()
	q, gen, err := c.ensureConn()
	if err != nil {
		return response{}, fmt.Errorf("%w: dial: %w", resilience.ErrShardUnavailable, err)
	}
	req.ID = c.nextID.Add(1)
	if d, ok := ctx.Deadline(); ok {
		us := time.Until(d).Microseconds()
		if us <= 0 {
			return response{}, fmt.Errorf("%w: %w", resilience.ErrShardUnavailable, context.DeadlineExceeded)
		}
		req.DeadlineUS = us
	}
	frame, err := encodeFrame(req)
	if err != nil {
		return response{}, err // unencodable request: definitive
	}
	ch := make(chan response, 1)
	c.pmu.Lock()
	c.pending[req.ID] = ch
	c.pmu.Unlock()
	c.om.requests.Inc()

	if err := q.enqueue(frame); err != nil {
		c.unregister(req.ID)
		c.teardown(gen)
		return response{}, fmt.Errorf("%w: write: %w", resilience.ErrShardUnavailable, err)
	}

	select {
	case resp, ok := <-ch:
		if !ok {
			return response{}, fmt.Errorf("%w: connection lost awaiting reply", resilience.ErrShardUnavailable)
		}
		c.om.rtt.ObserveSince(start)
		if verr := decodeVerdict(resp.Code, resp.Err); verr != nil {
			return response{}, verr
		}
		return resp, nil
	case <-ctx.Done():
		c.unregister(req.ID)
		return response{}, fmt.Errorf("%w: %w", resilience.ErrShardUnavailable, ctx.Err())
	}
}

// ensureConn returns the live connection, dialing a fresh one if the
// last was lost.
func (c *ShardClient) ensureConn() (*frameQueue, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, 0, errors.New("transport: client closed")
	}
	if c.conn != nil {
		return c.q, c.gen, nil
	}
	conn, err := c.cfg.Dial()
	if err != nil {
		return nil, 0, err
	}
	c.gen++
	if c.gen > 1 {
		c.om.redials.Inc()
	}
	c.conn = conn
	c.q = newFrameQueue(conn)
	go c.readLoop(conn, c.gen)
	return c.q, c.gen, nil
}

// readLoop routes reply frames to their waiting calls; strays (late,
// duplicated, or reordered replies whose call already gave up) are
// counted and dropped. A read error ends the connection's epoch.
func (c *ShardClient) readLoop(conn net.Conn, gen uint64) {
	for {
		body, err := readFrame(conn)
		if err != nil {
			c.teardown(gen)
			return
		}
		var resp response
		if err := json.Unmarshal(body, &resp); err != nil {
			c.teardown(gen)
			return
		}
		c.pmu.Lock()
		ch, ok := c.pending[resp.ID]
		if ok {
			delete(c.pending, resp.ID)
		}
		c.pmu.Unlock()
		if !ok {
			c.om.strays.Inc()
			continue
		}
		ch <- resp
	}
}

// teardown ends connection epoch gen: closes the socket and fails every
// pending call. Each pending entry is removed under pmu by exactly one
// of teardown and readLoop, so the reply channel is touched once.
func (c *ShardClient) teardown(gen uint64) {
	c.mu.Lock()
	if c.gen != gen || c.conn == nil {
		c.mu.Unlock()
		return
	}
	conn := c.conn
	c.conn, c.q = nil, nil
	c.mu.Unlock()
	conn.Close()
	c.pmu.Lock()
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.pmu.Unlock()
}

// unregister abandons a pending call (its context expired); a reply
// arriving later counts as a stray.
func (c *ShardClient) unregister(id uint64) {
	c.pmu.Lock()
	delete(c.pending, id)
	c.pmu.Unlock()
}
