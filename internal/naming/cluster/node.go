package cluster

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"time"

	"naplet/internal/naming"
	"naplet/internal/obs"
	"naplet/internal/rudp"
)

// NodeConfig configures one cluster node.
type NodeConfig struct {
	// Addr is the node's UDP bind address ("" for an ephemeral loopback
	// port is only usable in single-process tests, since the layout must
	// name the address peers dial).
	Addr string
	// Layout is the cluster topology; the node hosts every shard whose
	// replica list contains Addr.
	Layout Layout
	// LeaseInterval is the leader's heartbeat/replication cadence.
	// Default 100ms.
	LeaseInterval time.Duration
	// LeaseDuration is how long a follower tolerates leader silence
	// before starting a takeover. Default 6x LeaseInterval.
	LeaseDuration time.Duration
	// StalenessBound is the maximum data age at which a follower still
	// serves reads. Default = LeaseDuration.
	StalenessBound time.Duration
	// GossipInterval is the cadence of term-vector exchange with peer
	// nodes. Default 5x LeaseInterval.
	GossipInterval time.Duration
	// TTL, when positive, expires records not refreshed within it.
	TTL time.Duration
	// Metrics receives the naming.* and naming.shard.* counter families.
	Metrics *obs.Registry
	// Tracer records lease-transfer events.
	Tracer *obs.Tracer
	// Logger, when non-nil, receives node lifecycle logs.
	Logger *obs.Logger
	// DropFn injects control-channel faults (see rudp.Config.DropFn).
	DropFn func([]byte) bool
}

func (c NodeConfig) withDefaults() NodeConfig {
	if c.LeaseInterval <= 0 {
		c.LeaseInterval = 100 * time.Millisecond
	}
	if c.LeaseDuration <= 0 {
		c.LeaseDuration = 6 * c.LeaseInterval
	}
	if c.StalenessBound <= 0 {
		c.StalenessBound = c.LeaseDuration
	}
	if c.GossipInterval <= 0 {
		c.GossipInterval = 5 * c.LeaseInterval
	}
	return c
}

// Node hosts replicas of the shards its address is assigned in the
// layout, behind a single reliable-UDP endpoint.
type Node struct {
	cfg NodeConfig
	ep  *rudp.Endpoint
	// epReady closes once ep is assigned: rudp starts its read loop
	// inside Listen, so the handler can run before Listen returns and
	// must not touch ep until publication.
	epReady  chan struct{}
	replicas map[int]*replica
	gossipTo []string // peer node addresses (excluding self)

	transfers *obs.Counter

	mu       sync.Mutex
	killed   bool
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// replica is one hosted shard replica.
type replica struct {
	shard int
	peers []string
	self  int // index of this node in peers
	n     *Node
	store *naming.Service

	lookups, registers *obs.Counter

	// repMu serializes replication fan-out so batch sequence numbers
	// leave in order. mu nests inside repMu, never the reverse.
	repMu sync.Mutex

	mu sync.Mutex
	// term and leader are this replica's leadership view. peers[leader]
	// is the address believed to lead; term increases on every transfer.
	term   uint64
	leader int
	// Leader state: repSeq numbers outgoing replication batches.
	repSeq uint64
	// Follower state: lastSeq/lastTerm track the replication stream;
	// lastContact is the time of the last in-sequence batch and synced
	// reports whether the stream is gap-free since then.
	lastSeq     uint64
	lastTerm    uint64
	lastContact time.Time
	synced      bool
	// repFails counts consecutive replication failures per peer index;
	// at maxRepFailures the peer is suspected dead and per-write
	// replication stops waiting on it.
	repFails []int
}

// NewNode starts a node. The returned node is already serving.
func NewNode(cfg NodeConfig) (*Node, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Layout.Validate(); err != nil {
		return nil, err
	}
	if cfg.Addr == "" {
		// The layout names every node by address, so a node cannot bind
		// ephemerally and then discover who it is.
		return nil, fmt.Errorf("cluster: node needs an explicit address present in the layout")
	}
	n := &Node{
		cfg:       cfg,
		epReady:   make(chan struct{}),
		replicas:  make(map[int]*replica),
		transfers: cfg.Metrics.Counter("naming.lease_transfers"),
		stop:      make(chan struct{}),
	}
	// All node state is built before the endpoint binds: the rudp handler
	// runs concurrently from the first packet onward.
	for s, reps := range cfg.Layout.Replicas {
		self := -1
		for i, a := range reps {
			if a == cfg.Addr {
				self = i
				break
			}
		}
		if self < 0 {
			continue
		}
		store := naming.NewService()
		store.SetMetrics(cfg.Metrics)
		if cfg.TTL > 0 {
			store.SetTTL(cfg.TTL)
		}
		r := &replica{
			shard:     s,
			peers:     reps,
			self:      self,
			n:         n,
			store:     store,
			lookups:   cfg.Metrics.Counter(fmt.Sprintf("naming.shard.%d.lookups", s)),
			registers: cfg.Metrics.Counter(fmt.Sprintf("naming.shard.%d.registers", s)),
			term:      1,
			leader:    0,
			synced:    self == 0, // the initial leader is trivially in sync
			repFails:  make([]int, len(reps)),
		}
		r.lastContact = time.Now()
		n.replicas[s] = r
		shard := s
		cfg.Metrics.Func(fmt.Sprintf("naming.shard.%d.term", s), func() float64 {
			rep := n.replicas[shard]
			rep.mu.Lock()
			defer rep.mu.Unlock()
			return float64(rep.term)
		})
	}
	if len(n.replicas) == 0 {
		return nil, fmt.Errorf("cluster: %s hosts no shard in the layout", cfg.Addr)
	}
	for _, a := range cfg.Layout.Nodes() {
		if a != cfg.Addr {
			n.gossipTo = append(n.gossipTo, a)
		}
	}
	sort.Strings(n.gossipTo)

	ep, err := rudp.Listen(cfg.Addr, n.handle, rudp.Config{DropFn: cfg.DropFn})
	if err != nil {
		return nil, err
	}
	n.ep = ep
	close(n.epReady)

	n.wg.Add(1)
	go n.leaseLoop()
	if len(n.gossipTo) > 0 {
		n.wg.Add(1)
		go n.gossipLoop()
	}
	return n, nil
}

// Addr returns the node's bound UDP address.
func (n *Node) Addr() string { return n.ep.Addr().String() }

// Close stops the node gracefully (today identical to Kill; a handover
// protocol could hang off this seam later).
func (n *Node) Close() error { return n.Kill() }

// Kill stops the node abruptly — the SIGKILL equivalent used by the
// chaos tests: the endpoint stops answering mid-conversation and no
// goodbye of any kind is sent.
func (n *Node) Kill() error {
	n.stopOnce.Do(func() {
		n.mu.Lock()
		n.killed = true
		n.mu.Unlock()
		close(n.stop)
	})
	err := n.ep.Close()
	n.wg.Wait()
	return err
}

// Infos reports the hosted shard replicas, sorted by shard, for /namez.
func (n *Node) Infos() []ShardInfo {
	shards := make([]int, 0, len(n.replicas))
	for s := range n.replicas {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	out := make([]ShardInfo, 0, len(shards))
	for _, s := range shards {
		r := n.replicas[s]
		r.mu.Lock()
		info := ShardInfo{
			Shard:    s,
			Term:     r.term,
			Leader:   r.peers[r.leader],
			Replicas: append([]string(nil), r.peers...),
			Synced:   r.synced,
		}
		if r.leader == r.self {
			info.Role = "leader"
		} else {
			info.Role = "follower"
			info.Age = float64(time.Since(r.lastContact).Microseconds()) / 1000
		}
		r.mu.Unlock()
		info.Records, info.MaxEpoch = r.store.Stats()
		out = append(out, info)
	}
	return out
}

// handle is the node's rudp request handler.
func (n *Node) handle(_ netip.AddrPort, reqBytes []byte) []byte {
	<-n.epReady // replication handlers forward through n.ep
	var req request
	if err := gob.NewDecoder(bytes.NewReader(reqBytes)).Decode(&req); err != nil {
		return encode(response{Err: "cluster: bad request: " + err.Error()})
	}
	switch req.Kind {
	case kindMap:
		l := n.cfg.Layout
		return encode(response{Layout: &l, Vec: n.vector()})
	case kindGossip:
		n.mergeVector(req.Vec)
		return encode(response{Vec: n.vector()})
	case kindClient, kindRep:
		r, ok := n.replicas[req.Shard]
		if !ok {
			return encode(response{Err: fmt.Sprintf("cluster: shard %d not hosted here", req.Shard)})
		}
		if req.Kind == kindRep {
			return encode(r.handleReplicate(req))
		}
		return encode(r.handleClient(req))
	default:
		return encode(response{Err: fmt.Sprintf("cluster: unknown kind %d", req.Kind)})
	}
}

func encode(resp response) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(resp); err != nil {
		panic("cluster: encoding response: " + err.Error())
	}
	return buf.Bytes()
}

// call sends a request to a peer node and decodes the response.
func (n *Node) call(ctx context.Context, addr string, req request) (response, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(req); err != nil {
		return response{}, err
	}
	respBytes, err := n.ep.Request(ctx, addr, buf.Bytes())
	if err != nil {
		return response{}, err
	}
	var resp response
	if err := gob.NewDecoder(bytes.NewReader(respBytes)).Decode(&resp); err != nil {
		return response{}, err
	}
	return resp, nil
}

// vector is the node's current leadership view across hosted shards.
func (n *Node) vector() []shardTerm {
	out := make([]shardTerm, 0, len(n.replicas))
	for s, r := range n.replicas {
		r.mu.Lock()
		out = append(out, shardTerm{Shard: s, Term: r.term, Leader: r.leader})
		r.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}

// mergeVector adopts any strictly newer leadership a gossip partner
// reports for shards this node hosts.
func (n *Node) mergeVector(vec []shardTerm) {
	for _, st := range vec {
		r, ok := n.replicas[st.Shard]
		if !ok || st.Leader < 0 || st.Leader >= len(r.peers) {
			continue
		}
		r.mu.Lock()
		if st.Term > r.term {
			wasLeader := r.leader == r.self
			r.term = st.Term
			r.leader = st.Leader
			r.synced = false // a new term needs a full sync before follower reads
			if wasLeader && st.Leader != r.self {
				r.n.cfg.Logger.Infof("cluster: shard %d stepping down via gossip (term %d, leader %s)", st.Shard, st.Term, r.peers[st.Leader])
			}
		}
		r.mu.Unlock()
	}
}

// leaseLoop drives leader heartbeats and follower failover.
func (n *Node) leaseLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.LeaseInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		for _, r := range n.replicas {
			r.tick()
		}
	}
}

// gossipLoop exchanges term vectors with peer nodes round-robin.
func (n *Node) gossipLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.GossipInterval)
	defer t.Stop()
	i := 0
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		addr := n.gossipTo[i%len(n.gossipTo)]
		i++
		ctx, cancel := context.WithTimeout(context.Background(), n.cfg.LeaseInterval*4)
		resp, err := n.call(ctx, addr, request{Kind: kindGossip, Vec: n.vector()})
		cancel()
		if err == nil {
			n.mergeVector(resp.Vec)
		}
	}
}
