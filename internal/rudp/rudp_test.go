package rudp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newPair(t *testing.T, h Handler, cfg Config) (client, server *Endpoint) {
	t.Helper()
	server, err := Listen("127.0.0.1:0", h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	client, err = Listen("127.0.0.1:0", nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return client, server
}

func TestRequestResponse(t *testing.T) {
	echo := func(_ netip.AddrPort, req []byte) []byte { return append([]byte("echo:"), req...) }
	client, server := newPair(t, echo, Config{})
	resp, err := client.Request(context.Background(), server.Addr().String(), []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:ping" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestConcurrentRequests(t *testing.T) {
	h := func(_ netip.AddrPort, req []byte) []byte { return req }
	client, server := newPair(t, h, Config{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := []byte(fmt.Sprintf("msg-%d", i))
			got, err := client.Request(context.Background(), server.Addr().String(), want)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, want) {
				errs <- fmt.Errorf("got %q want %q", got, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestRetransmissionRecoversFromLoss(t *testing.T) {
	var reqCount atomic.Int64
	h := func(_ netip.AddrPort, req []byte) []byte {
		reqCount.Add(1)
		return []byte("ok")
	}
	// Drop the first 3 outgoing packets from the client (the request and two
	// retransmits); the 4th attempt gets through.
	var drops atomic.Int64
	cfg := Config{
		RetransmitInterval: 5 * time.Millisecond,
		MaxRetries:         10,
		DropFn: func([]byte) bool {
			return drops.Add(1) <= 3
		},
	}
	server, err := Listen("127.0.0.1:0", h, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := Listen("127.0.0.1:0", nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	resp, err := client.Request(context.Background(), server.Addr().String(), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ok" {
		t.Fatalf("resp = %q", resp)
	}
	if got := reqCount.Load(); got != 1 {
		t.Fatalf("handler invoked %d times, want 1", got)
	}
	if s := client.Stats(); s.Retransmits < 3 {
		t.Errorf("retransmits = %d, want >= 3", s.Retransmits)
	}
}

func TestExactlyOnceHandlerUnderDuplicateRequests(t *testing.T) {
	var invocations atomic.Int64
	h := func(_ netip.AddrPort, req []byte) []byte {
		invocations.Add(1)
		return []byte("done")
	}
	// Drop every response from the server the first 2 times, forcing the
	// client to retransmit its request; the server must answer duplicates
	// from its cache without re-invoking the handler.
	var drops atomic.Int64
	serverCfg := Config{
		DropFn: func([]byte) bool { return drops.Add(1) <= 2 },
	}
	server, err := Listen("127.0.0.1:0", h, serverCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := Listen("127.0.0.1:0", nil, Config{RetransmitInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	resp, err := client.Request(context.Background(), server.Addr().String(), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "done" {
		t.Fatalf("resp = %q", resp)
	}
	if got := invocations.Load(); got != 1 {
		t.Fatalf("handler invoked %d times, want exactly 1", got)
	}
	if s := server.Stats(); s.DuplicateRequests == 0 {
		t.Error("expected duplicate requests to be observed")
	}
}

func TestRequestTimeout(t *testing.T) {
	client, err := Listen("127.0.0.1:0", nil, Config{
		RetransmitInterval: 2 * time.Millisecond,
		MaxRetries:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// A bound-but-unserved port: packets vanish into an endpoint with no
	// reader would still respond at UDP level; instead use an address with
	// nothing listening.
	dead, err := Listen("127.0.0.1:0", nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	_, err = client.Request(context.Background(), deadAddr, []byte("x"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestRequestContextCancel(t *testing.T) {
	block := make(chan struct{})
	h := func(_ netip.AddrPort, req []byte) []byte {
		<-block
		return nil
	}
	client, server := newPair(t, h, Config{RetransmitInterval: time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := client.Request(ctx, server.Addr().String(), []byte("x"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context deadline", err)
	}
	close(block)
}

func TestClosedEndpointRejectsRequests(t *testing.T) {
	e, err := Listen("127.0.0.1:0", nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Request(context.Background(), "127.0.0.1:1", []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Double close is fine.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOversizePayloadRejected(t *testing.T) {
	e, err := Listen("127.0.0.1:0", nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	_, err = e.Request(context.Background(), "127.0.0.1:1", make([]byte, MaxPayload+1))
	if err == nil {
		t.Fatal("oversize payload accepted")
	}
}

func TestGarbagePacketsIgnored(t *testing.T) {
	h := func(_ netip.AddrPort, req []byte) []byte { return []byte("alive") }
	client, server := newPair(t, h, Config{})
	// Throw junk at the server from a raw socket.
	junkSender, err := Listen("127.0.0.1:0", nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer junkSender.Close()
	for _, junk := range [][]byte{{}, {1}, {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0}, bytes.Repeat([]byte{7}, 100)} {
		junkSender.conn.WriteToUDP(junk, server.Addr())
	}
	// Server still answers real requests.
	resp, err := client.Request(context.Background(), server.Addr().String(), []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "alive" {
		t.Fatalf("resp = %q", resp)
	}
}
