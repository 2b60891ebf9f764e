package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"time"

	"naplet/internal/security"
	"naplet/internal/transport"
	"naplet/internal/wire"
)

// The layer replay pushes a workload's payload sizes straight through the
// layers below Socket.Write, one layer at a time, so the ledger can set
// each layer's cost beside the core write time measured in place.

// replayBudget is how long each replayed layer is driven.
const replayBudget = 150 * time.Millisecond

type replayResult struct {
	encodeNs, decodeNs, streamNs float64 // per message
	sealNsPerKB, openNsPerKB     float64
}

func replayLayers(sizes []int, recordSize int) (replayResult, error) {
	var r replayResult
	max := 0
	for _, n := range sizes {
		if n > max {
			max = n
		}
	}
	payload := make([]byte, max)
	fill(payload, 7)

	r.encodeNs = replayEncode(sizes, payload)
	var err error
	if r.decodeNs, err = replayDecode(sizes, payload); err != nil {
		return r, err
	}
	if r.sealNsPerKB, r.openNsPerKB, err = replaySeal(recordSize); err != nil {
		return r, err
	}
	if r.streamNs, err = replayStream(sizes, payload); err != nil {
		return r, err
	}
	return r, nil
}

// replayEncode frames the sizes with a FrameWriter, detaching the
// coalescing buffer the way the socket's flusher does.
func replayEncode(sizes []int, payload []byte) float64 {
	fw := wire.NewFrameWriter(io.Discard, 1)
	var spare []byte
	n := 0
	t0 := time.Now()
	for time.Since(t0) < replayBudget {
		for _, sz := range sizes {
			if _, err := fw.WriteDataBuffered(payload[:sz]); err != nil {
				panic(err) // sizes are below the frame limit by construction
			}
			if fw.Buffered() >= 256<<10 {
				spare = fw.Take(spare)
			}
		}
		n += len(sizes)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// byteSource is a fully buffered PeekSource over encoded frames.
type byteSource struct{ b []byte }

func (s *byteSource) Read(p []byte) (int, error) {
	if len(s.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.b)
	s.b = s.b[n:]
	return n, nil
}

func (s *byteSource) Peek(n int) ([]byte, error) {
	if n > len(s.b) {
		return s.b, io.ErrShortBuffer
	}
	return s.b[:n], nil
}

func (s *byteSource) Buffered() int { return len(s.b) }

func replayDecode(sizes []int, payload []byte) (float64, error) {
	var enc bytes.Buffer
	fw := wire.NewFrameWriter(&enc, 1)
	for _, sz := range sizes {
		if _, err := fw.WriteDataBuffered(payload[:sz]); err != nil {
			return 0, err
		}
	}
	if err := fw.Flush(); err != nil {
		return 0, err
	}
	var src byteSource
	var dec wire.FrameDecoder
	n := 0
	t0 := time.Now()
	for time.Since(t0) < replayBudget {
		src.b = enc.Bytes()
		for {
			f, ok, err := dec.Next(&src)
			if err != nil {
				return 0, fmt.Errorf("replay decode: %w", err)
			}
			if !ok {
				break
			}
			wire.PutPayload(f.Payload)
			n++
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
}

// replaySeal seals and opens records of the size the workload's flushes
// produced, and returns the cost per KiB of each.
func replaySeal(recordSize int) (seal, open float64, err error) {
	key := make([]byte, 32)
	fill(key, 11)
	aad := make([]byte, 16)
	plain := make([]byte, recordSize)
	fill(plain, 13)
	count := 8 << 20 / recordSize
	if count < 64 {
		count = 64
	}
	records := make([][]byte, count)
	kb := float64(recordSize) / 1024

	sealer, err := security.NewSealer(key)
	if err != nil {
		return 0, 0, err
	}
	var dst []byte
	n := 0
	t0 := time.Now()
	for time.Since(t0) < replayBudget {
		if dst, err = sealer.Seal(dst[:0], plain, aad); err != nil {
			return 0, 0, err
		}
		n++
	}
	seal = float64(time.Since(t0).Nanoseconds()) / float64(n) / kb

	// Open count records in wire order, with a fresh opener per pass so its
	// counter matches that of the sealer that made them.
	if sealer, err = security.NewSealer(key); err != nil {
		return 0, 0, err
	}
	for i := range records {
		if records[i], err = sealer.Seal(nil, plain, aad); err != nil {
			return 0, 0, err
		}
	}
	out := make([]byte, recordSize)
	n = 0
	t0 = time.Now()
	for time.Since(t0) < replayBudget {
		opener, err := security.NewOpener(key)
		if err != nil {
			return 0, 0, err
		}
		for _, rec := range records {
			if _, err := opener.Open(out[:0], rec, aad); err != nil {
				return 0, 0, fmt.Errorf("replay open: %w", err)
			}
		}
		n += count
	}
	open = float64(time.Since(t0).Nanoseconds()) / float64(n) / kb
	return seal, open, nil
}

// replayStream writes the sizes through one stream of a bare encrypted
// transport between two Managers over loopback, and times them until the
// reader has drained every byte.
func replayStream(sizes []int, payload []byte) (float64, error) {
	a, err := newReplayPeer("replay-a")
	if err != nil {
		return 0, err
	}
	defer a.close()
	b, err := newReplayPeer("replay-b")
	if err != nil {
		return 0, err
	}
	defer b.close()
	id, err := wire.NewConnID()
	if err != nil {
		return 0, err
	}
	hdr := &wire.HandoffHeader{Purpose: wire.HandoffConnect, ConnID: id, TargetAgent: "sink", FromAgent: "src"}
	cs, err := a.mgr.OpenStream(b.ln.Addr().String(), hdr, 5*time.Second)
	if err != nil {
		return 0, fmt.Errorf("replay stream open: %w", err)
	}
	defer cs.Close()
	var ss *transport.Stream
	select {
	case ss = <-b.inbound:
	case <-time.After(5 * time.Second):
		return 0, fmt.Errorf("replay stream: no inbound stream")
	}
	defer ss.Close()

	// Size the run from a first pass so writer and reader agree on bytes.
	total := 0
	for _, sz := range sizes {
		total += sz
	}
	passes := 1
	t0 := time.Now()
	if err := writeSizes(cs, ss, sizes, payload, total); err != nil {
		return 0, err
	}
	if el := time.Since(t0); el < replayBudget {
		passes = int(replayBudget/(el+1)) + 1
	}
	t0 = time.Now()
	for i := 0; i < passes; i++ {
		if err := writeSizes(cs, ss, sizes, payload, total); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(passes*len(sizes)), nil
}

func writeSizes(w, r net.Conn, sizes []int, payload []byte, total int) error {
	errc := make(chan error, 1)
	go func() {
		buf := make([]byte, 64<<10)
		left := total
		for left > 0 {
			n, err := r.Read(buf[:min(len(buf), left)])
			if err != nil {
				errc <- fmt.Errorf("replay stream read: %w", err)
				return
			}
			left -= n
		}
		errc <- nil
	}()
	for _, sz := range sizes {
		if _, err := w.Write(payload[:sz]); err != nil {
			return fmt.Errorf("replay stream write: %w", err)
		}
	}
	return <-errc
}

type replayPeer struct {
	mgr      *transport.Manager
	ln       net.Listener
	inbound  chan *transport.Stream
	accepted chan struct{}
}

func newReplayPeer(name string) (*replayPeer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &replayPeer{ln: ln, inbound: make(chan *transport.Stream, 1), accepted: make(chan struct{})}
	p.mgr = transport.NewManager(transport.Config{
		HostName:      name,
		AdvertiseAddr: ln.Addr().String(),
		Authorize:     func(*wire.HandoffHeader) error { return nil },
		Deliver: func(_ *wire.HandoffHeader, s *transport.Stream) bool {
			select {
			case p.inbound <- s:
				return true
			default:
				return false
			}
		},
	})
	go func() {
		defer close(p.accepted)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go p.mgr.HandleConn(conn)
		}
	}()
	return p, nil
}

func (p *replayPeer) close() {
	p.ln.Close()
	<-p.accepted
	p.mgr.Close()
}
