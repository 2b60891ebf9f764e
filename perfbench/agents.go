package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"unsafe"

	"naplet"
)

// bulkMsg is the size of one bulk write; bulkPoolSize seeded chunks of that
// size supply the bulk payloads.
const (
	bulkMsg      = 64 << 10
	bulkPoolSize = 16
	// msgHeader is the sequence number and key that start every message.
	msgHeader = 16
)

// mix is the splitmix64 finaliser; every seeded choice the workloads make
// (payload bytes, sizes, itineraries) is mix of the seed and a position.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// key derives the generator key of one message on one stream.
func key(seed int64, stream, seq uint64) uint64 {
	return mix(mix(uint64(seed)^stream<<48) ^ seq)
}

// fill writes the generator's byte stream for k into b.
func fill(b []byte, k uint64) {
	for len(b) >= 8 {
		k = mix(k)
		binary.LittleEndian.PutUint64(b, k)
		b = b[8:]
	}
	k = mix(k)
	for i := range b {
		b[i] = byte(k >> (8 * i))
	}
}

// msgSize is the seeded size of a request/reply message: 16 B to 1 KiB.
func msgSize(k uint64) int { return msgHeader + int(mix(k^0x51)%(1024-msgHeader+1)) }

// makeMsg builds message seq of a stream: sequence number, key, then
// seeded bytes.
func makeMsg(seed int64, stream, seq uint64) []byte {
	k := key(seed, stream, seq)
	buf := make([]byte, msgSize(k))
	binary.LittleEndian.PutUint64(buf, seq)
	binary.LittleEndian.PutUint64(buf[8:], k)
	fill(buf[msgHeader:], k)
	return buf
}

// Streams whose messages the generator keys: each client's home link, its
// transient connections, and its side of the roamer-to-roamer link.
func homeStream(client int) uint64      { return uint64(1 + 3*client) }
func transientStream(client int) uint64 { return uint64(2 + 3*client) }
func peerStream(client int) uint64      { return uint64(3 + 3*client) }

func bulkPool(seed int64) [][]byte {
	pool := make([][]byte, bulkPoolSize)
	for i := range pool {
		pool[i] = make([]byte, bulkMsg)
		fill(pool[i], key(seed, 0, uint64(i)))
	}
	return pool
}

func bulkIndex(seed int64, seq uint64) int { return int(key(seed, 0, seq^1<<40) % bulkPoolSize) }

// sample kinds a recorder keeps.
const (
	sampleOp    = iota // one workload operation: latency and bytes verified
	sampleBytes        // bytes verified outside a timed operation
	sampleOpen         // one transient Dial (roam)
)

type sample struct {
	kind       uint8
	t, lat, by int64
}

// recorder collects one agent's samples. A roaming client runs on a new
// goroutine on every host, so access is locked.
type recorder struct {
	mu      sync.Mutex
	samples []sample
}

func (r *recorder) add(s sample) {
	r.mu.Lock()
	r.samples = append(r.samples, s)
	r.mu.Unlock()
}

// bytes is the heap the recorder's samples occupy.
func (r *recorder) bytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return cap(r.samples) * int(unsafe.Sizeof(sample{}))
}

func (r *recorder) all() []sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]sample(nil), r.samples...)
}

// Client is a mobile agent of every workload. It launches on h1 and opens
// its connections there. Bulk and rpc clients are then dispatched with them
// to h3 and work from there; roamers take turns to hop (see roam).
// Exported fields are its state across hops.
type Client struct {
	Dep      string
	Kind     string
	Index    int
	Host     int
	Landings int
	// HopStart is when MigrateTo returned (ns since the run's epoch).
	HopStart int64
	HopOp    uint64
	HopSpan  uint32
	HopRUDP  uint64
	// Ready says the client has reported itself dispatched.
	Ready bool
	// Home and Peer carry the connection ids to the stationary agent and,
	// for roamers, to the other roamer.
	Home, Peer string
	// Seq numbers the next home-link message, Transient the next transient
	// connection, PeerSeq the next roamer-to-roamer message each way.
	Seq, Transient, PeerSeq uint64
}

// Run implements naplet.Behavior.
func (c *Client) Run(ctx *naplet.Context) error {
	d, err := lookupDeployment(c.Dep)
	if err != nil {
		return err
	}
	err = c.run(ctx, d)
	if errors.Is(err, naplet.ErrMigrate) {
		return err
	}
	if err != nil {
		d.violation("%s: %v", ctx.AgentID(), err)
	}
	d.done <- ctx.AgentID()
	return err
}

func (c *Client) run(ctx *naplet.Context, d *deployment) error {
	if c.Landings == 0 {
		return c.launch(ctx, d)
	}
	home, peer, err := c.land(ctx, d)
	if err != nil {
		return err
	}
	switch c.Kind {
	case "bulk":
		return c.bulk(ctx, d, home)
	case "rpc":
		return c.rpc(ctx, d, home)
	default:
		return c.roam(ctx, d, home, peer)
	}
}

// launch opens the client's connections on the launch host and dispatches
// the client to its first host. The second roamer starts its walk where it
// was launched: the roamers take turns to hop (see roam).
func (c *Client) launch(ctx *naplet.Context, d *deployment) error {
	op := d.newOp()
	var peer *naplet.Socket
	if c.Kind == "roam" {
		var err error
		if c.Index == 1 {
			ss, err := naplet.Listen(ctx)
			if err != nil {
				return err
			}
			close(d.listening)
			sp := d.tr.begin(spanAccept, op, 0)
			peer, err = ss.Accept(ctx.StdContext())
			d.tr.end(sp)
			ss.Close()
			if err != nil {
				return fmt.Errorf("accepting the roamer link: %w", err)
			}
		} else {
			select {
			case <-d.listening:
			case <-ctx.Done():
				return errors.New("host closed before the peer roamer listened")
			}
			if peer, err = c.dial(ctx, d, clientID(1), op, 0); err != nil {
				return err
			}
		}
		c.Peer = peer.ID().String()
	}
	home, err := c.dial(ctx, d, srvID, op, 0)
	if err != nil {
		return err
	}
	c.Home = home.ID().String()
	switch {
	case c.Kind != "roam":
		return c.hop(ctx, d, workHost)
	case c.Index == 0:
		return c.hop(ctx, d, c.nextHost(d))
	default:
		return c.roam(ctx, d, home, peer)
	}
}

// nextHost picks the next host of the seeded itinerary: one of the two
// hosts the client is not on.
func (c *Client) nextHost(d *deployment) int {
	step := 1 + int(key(d.seed, peerStream(c.Index), uint64(c.Landings)^1<<41)%2)
	return (c.Host + step) % len(hostNames)
}

// hop starts a migration to host dest; Run must return its result.
func (c *Client) hop(ctx *naplet.Context, d *deployment, dest int) error {
	c.Host = dest
	c.Landings++
	c.HopOp = d.newOp()
	if d.tr != nil {
		c.HopSpan = d.tr.newID()
		c.HopRUDP = d.rudpSent()
	}
	c.HopStart = d.now()
	if d.tr != nil {
		d.setHop(ctx.AgentID(), &hopRec{op: c.HopOp, span: c.HopSpan, start: c.HopStart})
	}
	return ctx.MigrateTo(d.dock(dest))
}

// land ends a hop: every carried connection is re-attached and, except
// for bulk (whose sink sends nothing back), one verified round trip with
// the stationary agent completes.
func (c *Client) land(ctx *naplet.Context, d *deployment) (home, peer *naplet.Socket, err error) {
	if home, err = c.attach(ctx, d, c.Home); err != nil {
		return nil, nil, err
	}
	if c.Peer != "" {
		if peer, err = c.attach(ctx, d, c.Peer); err != nil {
			return nil, nil, err
		}
	}
	var n int
	if c.Kind != "bulk" {
		if n, err = c.roundTrip(d, home, homeStream(c.Index), c.Seq, c.HopOp, c.HopSpan); err != nil {
			return nil, nil, err
		}
		c.Seq++
	}
	end := d.now()
	if c.Kind == "roam" {
		d.recs[c.Index].add(sample{kind: sampleOp, t: end, lat: end - c.HopStart, by: int64(n)})
	}
	if tr := d.tr; tr != nil {
		tr.add(span{kind: spanHop, id: c.HopSpan, op: c.HopOp, start: c.HopStart, end: end, rudp: d.rudpSent() - c.HopRUDP})
	}
	return home, peer, nil
}

func (c *Client) attach(ctx *naplet.Context, d *deployment, id string) (*naplet.Socket, error) {
	cid, err := naplet.ParseConnID(id)
	if err != nil {
		return nil, err
	}
	sp := d.tr.begin(spanAttach, c.HopOp, c.HopSpan)
	s, err := naplet.Attach(ctx, cid)
	d.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("re-attaching %s after landing on %s: %w", id, ctx.HostName(), err)
	}
	return s, nil
}

func (c *Client) dial(ctx *naplet.Context, d *deployment, target string, op uint64, parent uint32) (*naplet.Socket, error) {
	sp := d.tr.begin(spanDial, op, parent)
	rudp0 := uint64(0)
	if d.tr != nil {
		rudp0 = d.rudpSent()
	}
	s, err := naplet.Dial(ctx, target)
	if d.tr != nil {
		sp.rudp = d.rudpSent() - rudp0
	}
	d.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("dialing %s: %w", target, err)
	}
	return s, nil
}

func closeConn(d *deployment, s *naplet.Socket, op uint64, parent uint32) error {
	sp := d.tr.begin(spanClose, op, parent)
	err := s.Close()
	d.tr.end(sp)
	return err
}

// roundTrip sends message seq of a stream and checks that the echo is the
// same message, byte for byte. It returns the bytes verified.
func (c *Client) roundTrip(d *deployment, s *naplet.Socket, stream, seq uint64, op uint64, parent uint32) (int, error) {
	msg := makeMsg(d.seed, stream, seq)
	out := msg
	if d.wrote(len(msg)) {
		out = append([]byte(nil), msg...)
		out[len(out)-1] ^= 0xff
	}
	sp := d.tr.begin(spanWrite, op, parent)
	err := s.WriteMsg(out)
	d.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("writing message %d of stream %d: %w", seq, stream, err)
	}
	sp = d.tr.begin(spanRead, op, parent)
	reply, err := s.ReadMsg()
	d.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("reading reply %d of stream %d: %w", seq, stream, err)
	}
	if !bytes.Equal(reply, msg) {
		return 0, fmt.Errorf("reply %d of stream %d differs from the request (%d vs %d bytes, seq %d)",
			seq, stream, len(reply), len(msg), binary.LittleEndian.Uint64(reply))
	}
	return 2 * len(msg), nil
}

// ready reports the client dispatched, once, and waits for the measured
// phase.
func (c *Client) ready(ctx *naplet.Context, d *deployment) error {
	if c.Ready {
		return nil
	}
	c.Ready = true
	d.ready <- ctx.AgentID()
	return d.waitStart(ctx)
}

// bulk streams seeded 64 KiB messages to the sink until the measured phase
// ends. Each message carries its sequence number and send time in its
// first 16 bytes.
func (c *Client) bulk(ctx *naplet.Context, d *deployment, s *naplet.Socket) error {
	if err := c.ready(ctx, d); err != nil {
		return err
	}
	pool := d.bulkPool
	buf := make([]byte, bulkMsg)
	var k uint64
	for ; !d.stopped.Load(); k++ {
		copy(buf, pool[bulkIndex(d.seed, k)])
		binary.LittleEndian.PutUint64(buf, k)
		binary.LittleEndian.PutUint64(buf[8:], uint64(d.now()))
		if d.wrote(len(buf)) {
			buf[len(buf)-1] ^= 0xff
		}
		sp := d.tr.begin(spanWrite, 0, 0)
		_, err := s.Write(buf)
		d.tr.end(sp)
		if err != nil {
			return fmt.Errorf("bulk write %d: %w", k, err)
		}
	}
	d.mu.Lock()
	d.bulkSent = int64(k)
	d.mu.Unlock()
	return closeConn(d, s, 0, 0)
}

// rpc runs closed-loop request/reply round trips until the measured phase
// ends.
func (c *Client) rpc(ctx *naplet.Context, d *deployment, s *naplet.Socket) error {
	if err := c.ready(ctx, d); err != nil {
		return err
	}
	rec := d.recs[c.Index]
	for !d.stopped.Load() {
		op := d.newOp()
		sp := d.tr.begin(spanOp, op, 0)
		t0 := d.now()
		n, err := c.roundTrip(d, s, homeStream(c.Index), c.Seq, op, sp.id)
		t1 := d.now()
		d.tr.end(sp)
		if err != nil {
			return err
		}
		c.Seq++
		rec.add(sample{kind: sampleOp, t: t1, lat: t1 - t0, by: int64(n)})
	}
	return closeConn(d, s, 0, 0)
}

// roam is a roamer's work between hops. A roamer that has just landed makes
// one transient Dial, request/reply and Close to the stationary agent. Then
// the roamers exchange one message each way on the roamer-to-roamer link
// and take turns to hop after each exchange, so every hop carries the
// roamer link while its other end waits on it. The roamer message carries
// whether its sender goes on, so both roamers stop after the same exchange.
func (c *Client) roam(ctx *naplet.Context, d *deployment, home, peer *naplet.Socket) error {
	rec := d.recs[c.Index]
	landed := c.Landings > 0
	for {
		if err := c.ready(ctx, d); err != nil {
			return err
		}
		if landed {
			if err := c.transient(ctx, d, rec); err != nil {
				return err
			}
			landed = false
		}
		goOn := !d.stopped.Load()
		n, peerGoesOn, err := c.exchange(d, peer, goOn)
		if err != nil {
			return err
		}
		rec.add(sample{kind: sampleBytes, t: d.now(), by: int64(n)})
		if !goOn || !peerGoesOn {
			if err := closeConn(d, peer, 0, 0); err != nil {
				return err
			}
			return closeConn(d, home, 0, 0)
		}
		if c.PeerSeq%2 == uint64(c.Index) {
			return c.hop(ctx, d, c.nextHost(d))
		}
	}
}

// transient opens a connection to the stationary agent, makes one verified
// round trip on it and closes it.
func (c *Client) transient(ctx *naplet.Context, d *deployment, rec *recorder) error {
	op := d.newOp()
	sp := d.tr.begin(spanOp, op, 0)
	t0 := d.now()
	tmp, err := c.dial(ctx, d, srvID, op, sp.id)
	if err != nil {
		return err
	}
	t1 := d.now()
	n, err := c.roundTrip(d, tmp, transientStream(c.Index), c.Transient, op, sp.id)
	if err != nil {
		return err
	}
	c.Transient++
	if err := closeConn(d, tmp, op, sp.id); err != nil {
		return err
	}
	d.tr.end(sp)
	rec.add(sample{kind: sampleOpen, t: t1, lat: t1 - t0})
	rec.add(sample{kind: sampleBytes, t: d.now(), by: int64(n)})
	return nil
}

// peerMsg is message seq of a roamer's side of the roamer link. The last
// header byte, in place of the key's top byte, is the go-on flag: 1 if the
// sender goes on, 0 if it stops.
func peerMsg(seed int64, client int, seq uint64, goOn bool) []byte {
	msg := makeMsg(seed, peerStream(client), seq)
	msg[msgHeader-1] = 0
	if goOn {
		msg[msgHeader-1] = 1
	}
	return msg
}

// exchange writes this roamer's next message on the roamer link and reads
// the other roamer's, checking its sequence number, bytes and go-on flag.
func (c *Client) exchange(d *deployment, s *naplet.Socket, goOn bool) (int, bool, error) {
	op := d.newOp()
	sp := d.tr.begin(spanOp, op, 0)
	defer d.tr.end(sp)
	msg := peerMsg(d.seed, c.Index, c.PeerSeq, goOn)
	if d.wrote(len(msg)) {
		msg[len(msg)-1] ^= 0xff
	}
	wsp := d.tr.begin(spanWrite, op, sp.id)
	err := s.WriteMsg(msg)
	d.tr.end(wsp)
	if err != nil {
		return 0, false, fmt.Errorf("writing roamer message %d: %w", c.PeerSeq, err)
	}
	rsp := d.tr.begin(spanRead, op, sp.id)
	got, err := s.ReadMsg()
	d.tr.end(rsp)
	if err != nil {
		return 0, false, fmt.Errorf("reading roamer message %d: %w", c.PeerSeq, err)
	}
	want := makeMsg(d.seed, peerStream(1-c.Index), c.PeerSeq)
	if len(got) != len(want) || binary.LittleEndian.Uint64(got) != c.PeerSeq || got[msgHeader-1] > 1 ||
		!bytes.Equal(got[:msgHeader-1], want[:msgHeader-1]) || !bytes.Equal(got[msgHeader:], want[msgHeader:]) {
		return 0, false, fmt.Errorf("roamer message %d arrived as seq %d, %d bytes, not as sent",
			c.PeerSeq, binary.LittleEndian.Uint64(got), len(got))
	}
	c.PeerSeq++
	return len(got), got[msgHeader-1] == 1, nil
}

// Echo is the stationary agent of rpc and roam: it echoes every message on
// every connection.
type Echo struct{ Dep string }

// Run implements naplet.Behavior.
func (e *Echo) Run(ctx *naplet.Context) error {
	d, err := lookupDeployment(e.Dep)
	if err != nil {
		return err
	}
	ss, err := naplet.Listen(ctx)
	if err != nil {
		return err
	}
	for {
		conn, err := ss.Accept(ctx.StdContext())
		if err != nil {
			// The host is shutting down; Run returning closes the
			// remaining connections, which ends their goroutines.
			return nil
		}
		go func(conn *naplet.Socket) {
			for {
				msg, err := conn.ReadMsg()
				if err != nil {
					return
				}
				d.msgs.Add(1)
				d.payload.Add(int64(len(msg)))
				if err := conn.WriteMsg(msg); err != nil {
					return
				}
			}
		}(conn)
	}
}

// Sink is the stationary agent of bulk: it reads the stream and checks
// every message's sequence number and bytes against the seeded pool.
type Sink struct{ Dep string }

// Run implements naplet.Behavior.
func (s *Sink) Run(ctx *naplet.Context) error {
	d, err := lookupDeployment(s.Dep)
	if err != nil {
		return err
	}
	defer func() { d.done <- srvID }()
	ss, err := naplet.Listen(ctx)
	if err != nil {
		return err
	}
	sp := d.tr.begin(spanAccept, 0, 0)
	conn, err := ss.Accept(ctx.StdContext())
	d.tr.end(sp)
	if err != nil {
		return err
	}
	rec := d.recs[len(d.recs)-1]
	buf := make([]byte, bulkMsg)
	bad := false
	var k uint64
	for ; ; k++ {
		sp := d.tr.begin(spanRead, 0, 0)
		_, err := io.ReadFull(conn, buf)
		d.tr.end(sp)
		if err == io.EOF {
			break
		}
		if err != nil {
			d.violation("bulk sink: reading message %d: %v", k, err)
			break
		}
		if bad {
			continue // drain, so the writer is not blocked by flow control
		}
		now := d.now()
		want := d.bulkPool[bulkIndex(d.seed, k)]
		if seq := binary.LittleEndian.Uint64(buf); seq != k || !bytes.Equal(buf[msgHeader:], want[msgHeader:]) {
			d.violation("bulk message %d arrived as seq %d with bytes that differ from those sent", k, seq)
			bad = true
			continue
		}
		sent := int64(binary.LittleEndian.Uint64(buf[8:]))
		rec.add(sample{kind: sampleOp, t: now, lat: now - sent, by: bulkMsg})
	}
	d.mu.Lock()
	d.bulkRecv = int64(k)
	d.mu.Unlock()
	return nil
}
