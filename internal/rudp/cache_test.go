package rudp

import (
	"bytes"
	"encoding/binary"
	"net"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"
)

// rawPeer is a bare UDP socket speaking the packet format by hand, so a
// test controls exactly which request ids reach the endpoint and when.
type rawPeer struct {
	t    *testing.T
	conn *net.UDPConn
	dst  netip.AddrPort
	buf  []byte
}

func newRawPeer(t *testing.T, server *Endpoint) *rawPeer {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	dst := server.Addr().AddrPort()
	dst = netip.AddrPortFrom(dst.Addr().Unmap(), dst.Port())
	return &rawPeer{t: t, conn: conn, dst: dst, buf: make([]byte, 2048)}
}

// roundTrip sends the request pkt and returns the payload of the response
// carrying its id.
func (p *rawPeer) roundTrip(pkt []byte) []byte {
	if _, err := p.conn.WriteToUDPAddrPort(pkt, p.dst); err != nil {
		p.t.Fatal(err)
	}
	p.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for {
		n, _, err := p.conn.ReadFromUDPAddrPort(p.buf)
		if err != nil {
			p.t.Fatal(err)
		}
		if n >= headerSize && p.buf[3] == kindResponse && bytes.Equal(p.buf[4:12], pkt[4:12]) {
			return p.buf[headerSize:n]
		}
	}
}

// TestDuplicateAfterHandlerFinishedServedFromCache sends a request, waits
// for its response (so the handler has finished), then replays the same
// request id: the endpoint must answer from its cache without running the
// handler again.
func TestDuplicateAfterHandlerFinishedServedFromCache(t *testing.T) {
	var calls atomic.Int64
	server, err := Listen("127.0.0.1:0", func(_ netip.AddrPort, req []byte) []byte {
		return append([]byte("resp-"), byte('0'+calls.Add(1)))
	}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	peer := newRawPeer(t, server)

	pkt := encodePacket(kindRequest, 77, []byte("req"))
	first := append([]byte(nil), peer.roundTrip(pkt)...)
	second := peer.roundTrip(pkt)
	if string(first) != "resp-1" || string(second) != "resp-1" {
		t.Fatalf("responses %q then %q, want resp-1 twice", first, second)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want 1", n)
	}
	if s := server.Stats(); s.DuplicateRequests != 1 || s.HandlerInvoked != 1 {
		t.Fatalf("stats %+v, want 1 duplicate and 1 handler run", s)
	}
}

// maxAllocsPerHandledRequest bounds the heap allocations of one request's
// full server-side path: read, cache entry, handler goroutine, response.
// The path measures 4 on go1.24/amd64; the earlier cache keyed by the
// peer's address string, with a heap entry and a channel kept for every
// request, took 10.
const maxAllocsPerHandledRequest = 5

func TestAllocsPerHandledRequest(t *testing.T) {
	resp := []byte("ok")
	server, err := Listen("127.0.0.1:0", func(netip.AddrPort, []byte) []byte { return resp }, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	peer := newRawPeer(t, server)

	pkt := encodePacket(kindRequest, 0, []byte("req"))
	id := uint64(1)
	allocs := testing.AllocsPerRun(500, func() {
		id++
		binary.BigEndian.PutUint64(pkt[4:12], id)
		peer.roundTrip(pkt)
	})
	t.Logf("%.1f allocs per handled request", allocs)
	if allocs > maxAllocsPerHandledRequest {
		t.Fatalf("%.1f allocs per handled request, want at most %d", allocs, maxAllocsPerHandledRequest)
	}
}
