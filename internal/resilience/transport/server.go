package transport

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"sharedopt/internal/resilience"
)

// ShardServer serves one shard's ShardTransport over TCP. Each accepted
// connection gets a reader goroutine; each decoded request is handled on
// its own goroutine against the host, so a slow settlement marker never
// blocks submissions sharing the connection, and replies are
// group-committed back through a frameQueue. Close is the process-kill
// the chaos tests use: it stops the listener and severs every
// connection, leaving the host's journal as the only survivor.
type ShardServer struct {
	host resilience.ShardTransport

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewShardServer wraps host; call Listen to start serving.
func NewShardServer(host resilience.ShardTransport) *ShardServer {
	return &ShardServer{host: host, conns: make(map[net.Conn]struct{})}
}

// Listen binds addr (use "127.0.0.1:0" for an ephemeral port) and starts
// accepting. It returns the bound address clients should dial.
func (s *ShardServer) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("transport: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// Addr returns the listening address, or "" before Listen.
func (s *ShardServer) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

func (s *ShardServer) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *ShardServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	q := newFrameQueue(conn)
	var reqs sync.WaitGroup
	for {
		body, err := readFrame(conn)
		if err != nil {
			break // peer gone, torn frame, or our own Close
		}
		var req request
		if err := json.Unmarshal(body, &req); err != nil {
			break // not speaking our protocol: hang up
		}
		reqs.Add(1)
		go func() {
			defer reqs.Done()
			resp := s.handle(req)
			if frame, err := encodeFrame(resp); err == nil {
				q.enqueue(frame)
			}
		}()
	}
	reqs.Wait()
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// handle dispatches one request to the host, re-arming the caller's
// remaining deadline budget on the server's clock.
func (s *ShardServer) handle(req request) response {
	ctx := context.Background()
	if req.DeadlineUS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineUS)*time.Microsecond)
		defer cancel()
	}
	resp := response{ID: req.ID}
	var err error
	switch req.Op {
	case opSubmit:
		if req.Rec == nil {
			err = fmt.Errorf("transport: submit without record")
			break
		}
		var res resilience.SubmitResult
		if res, err = s.host.Submit(ctx, *req.Rec); err == nil {
			resp.Result = &res
		}
	case opAdv:
		err = s.host.Advance(ctx, req.Window)
	case opClose:
		err = s.host.ClosePeriod(ctx)
	case opStats:
		var info resilience.ShardInfo
		if info, err = s.host.Stats(ctx); err == nil {
			resp.Info = &info
		}
	default:
		err = fmt.Errorf("transport: unknown op %q", req.Op)
	}
	resp.Code, resp.Err = encodeVerdict(err)
	return resp
}

// Close stops the listener, severs every connection, and waits for the
// serving goroutines to drain. The wrapped host (and its journal) is
// untouched: restarting the shard is RecoverShardHost plus a fresh
// server, exactly like a process restart.
func (s *ShardServer) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
}
