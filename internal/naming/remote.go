package naming

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"naplet/internal/rudp"
)

// This file provides a network front for the location service so that agent
// servers in separate processes can share one registry: a Server wraps a
// Service behind a reliable-UDP endpoint, and a Client implements Resolver
// (plus the write operations) against it.

type rpcOp uint8

const (
	opRegister rpcOp = iota + 1
	opUpdate
	opDeregister
	opLookup
	opWaitFor
	opTrace
)

type rpcRequest struct {
	Op      rpcOp
	AgentID string
	Loc     Location
	Epoch   uint64
	// TimeoutMs bounds a WaitFor on the server side.
	TimeoutMs int64
}

type rpcResponse struct {
	// Code names the sentinel behind a failure (codeOK on success); Err
	// is the failure's message, for humans.
	Code   errCode
	Err    string
	Record Record
	Trace  []Move
}

// fail records err in the response.
func (r *rpcResponse) fail(err error) {
	r.Code = codeOf(err)
	r.Err = err.Error()
}

// Server exposes a Service over the control-channel transport.
type Server struct {
	svc *Service
	ep  *rudp.Endpoint
}

// NewServer starts serving svc on addr ("" for an ephemeral loopback port).
func NewServer(svc *Service, addr string) (*Server, error) {
	return NewServerWithConfig(svc, addr, rudp.Config{})
}

// NewServerWithConfig is NewServer with an explicit transport
// configuration — the seam fault-injection tests and cluster replicas use
// to shape the control channel (e.g. a seeded netem DropFn).
func NewServerWithConfig(svc *Service, addr string, rcfg rudp.Config) (*Server, error) {
	s := &Server{svc: svc}
	ep, err := rudp.Listen(addr, s.handle, rcfg)
	if err != nil {
		return nil, err
	}
	s.ep = ep
	return s, nil
}

// Addr returns the server's UDP address string.
func (s *Server) Addr() string { return s.ep.Addr().String() }

// Close stops the server.
func (s *Server) Close() error { return s.ep.Close() }

func (s *Server) handle(_ netip.AddrPort, reqBytes []byte) []byte {
	var resp rpcResponse
	req, err := decodeRequest(reqBytes)
	if err != nil {
		resp.fail(err)
		return resp.encode()
	}
	switch req.Op {
	case opRegister:
		if err := s.svc.Register(req.AgentID, req.Loc); err != nil {
			resp.fail(err)
		}
	case opUpdate:
		if err := s.svc.Update(req.AgentID, req.Loc, req.Epoch); err != nil {
			resp.fail(err)
		}
	case opDeregister:
		if err := s.svc.Deregister(req.AgentID); err != nil {
			resp.fail(err)
		}
	case opLookup:
		rec, err := s.svc.Lookup(context.Background(), req.AgentID)
		if err != nil {
			resp.fail(err)
		} else {
			resp.Record = rec
		}
	case opWaitFor:
		// Bounded server-side wait: the handler runs on its own goroutine,
		// and duplicate requests are answered from the in-progress cache,
		// so blocking here is safe. The bound stays under the client's
		// retransmission budget.
		timeout := time.Duration(req.TimeoutMs) * time.Millisecond
		if timeout <= 0 || timeout > 3*time.Second {
			timeout = 3 * time.Second
		}
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		rec, err := s.svc.WaitFor(ctx, req.AgentID)
		cancel()
		if err != nil {
			resp.fail(fmt.Errorf("%w: wait expired for %s", ErrNotFound, req.AgentID))
		} else {
			resp.Record = rec
		}
	case opTrace:
		resp.Trace = s.svc.Trace(req.AgentID)
	default:
		resp.fail(fmt.Errorf("naming: unknown op %d", req.Op))
	}
	return resp.encode()
}

// Client talks to a remote Server. It implements Resolver.
type Client struct {
	serverAddr string
	ep         *rudp.Endpoint
}

// NewClient creates a client of the location server at serverAddr.
func NewClient(serverAddr string) (*Client, error) {
	return NewClientWithConfig(serverAddr, rudp.Config{})
}

// NewClientWithConfig is NewClient with an explicit transport
// configuration, mirroring NewServerWithConfig.
func NewClientWithConfig(serverAddr string, rcfg rudp.Config) (*Client, error) {
	ep, err := rudp.Listen("127.0.0.1:0", nil, rcfg)
	if err != nil {
		return nil, err
	}
	return &Client{serverAddr: serverAddr, ep: ep}, nil
}

// Close releases the client's socket.
func (c *Client) Close() error { return c.ep.Close() }

func (c *Client) call(ctx context.Context, req rpcRequest) (rpcResponse, error) {
	respBytes, err := c.ep.Request(ctx, c.serverAddr, req.encode())
	if err != nil {
		return rpcResponse{}, err
	}
	resp, err := decodeResponse(respBytes)
	if err != nil {
		return rpcResponse{}, err
	}
	if resp.Code != codeOK {
		return resp, remoteError(resp.Code, resp.Err)
	}
	return resp, nil
}

// remoteError maps a response's error code back onto the package's
// sentinel errors so errors.Is keeps working across the wire.
func remoteError(code errCode, msg string) error {
	switch code {
	case codeNotFound:
		return fmt.Errorf("%w (remote: %s)", ErrNotFound, msg)
	case codeStale:
		return fmt.Errorf("%w (remote: %s)", ErrStale, msg)
	case codeExists:
		return fmt.Errorf("%w (remote: %s)", ErrExists, msg)
	default:
		return fmt.Errorf("naming: remote error: %s", msg)
	}
}

// Register registers an agent on the remote service.
func (c *Client) Register(ctx context.Context, agentID string, loc Location) error {
	_, err := c.call(ctx, rpcRequest{Op: opRegister, AgentID: agentID, Loc: loc})
	return err
}

// Update reports an agent migration to the remote service.
func (c *Client) Update(ctx context.Context, agentID string, loc Location, epoch uint64) error {
	_, err := c.call(ctx, rpcRequest{Op: opUpdate, AgentID: agentID, Loc: loc, Epoch: epoch})
	return err
}

// Deregister removes an agent from the remote service.
func (c *Client) Deregister(ctx context.Context, agentID string) error {
	_, err := c.call(ctx, rpcRequest{Op: opDeregister, AgentID: agentID})
	return err
}

// WaitFor blocks (up to timeout, capped at 3s per round trip) until the
// agent is registered, retrying rounds until ctx expires.
func (c *Client) WaitFor(ctx context.Context, agentID string, timeout time.Duration) (Record, error) {
	deadline := time.Now().Add(timeout)
	for {
		round := time.Until(deadline)
		if round <= 0 {
			return Record{}, fmt.Errorf("%w: %q (wait expired)", ErrNotFound, agentID)
		}
		if round > 3*time.Second {
			round = 3 * time.Second
		}
		resp, err := c.call(ctx, rpcRequest{Op: opWaitFor, AgentID: agentID, TimeoutMs: round.Milliseconds()})
		if err == nil {
			return resp.Record, nil
		}
		if ctx.Err() != nil {
			return Record{}, ctx.Err()
		}
		// A lost transport round is retriable while time remains — the
		// server-side wait is idempotent.
		if errors.Is(err, rudp.ErrTimeout) {
			continue
		}
		if !errors.Is(err, ErrNotFound) {
			return Record{}, err
		}
	}
}

// Lookup implements Resolver against the remote service.
func (c *Client) Lookup(ctx context.Context, agentID string) (Record, error) {
	resp, err := c.call(ctx, rpcRequest{Op: opLookup, AgentID: agentID})
	if err != nil {
		return Record{}, err
	}
	return resp.Record, nil
}

// Trace fetches an agent's movement history from the remote service.
func (c *Client) Trace(ctx context.Context, agentID string) ([]Move, error) {
	resp, err := c.call(ctx, rpcRequest{Op: opTrace, AgentID: agentID})
	if err != nil {
		return nil, err
	}
	return resp.Trace, nil
}
