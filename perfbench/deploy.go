package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"naplet"
	"naplet/internal/core"
	"naplet/internal/metrics"
	"naplet/internal/naming"
	"naplet/internal/obs"
)

// hostNames are the deployment's three agent servers. Clients launch on the
// first, the stationary agent lives on the second, and bulk and rpc clients
// work from the third.
var hostNames = [3]string{"h1", "h2", "h3"}

const (
	launchHost = 0
	homeHost   = 1
	workHost   = 2
	// srvID is the stationary agent: the bulk sink or the echo agent.
	srvID = "srv"
)

// deployments maps a deployment key to its live state, so behaviours (which
// travel between hosts as gob-encoded values) can find the run they belong
// to.
var deployments sync.Map

func lookupDeployment(key string) (*deployment, error) {
	v, ok := deployments.Load(key)
	if !ok {
		return nil, fmt.Errorf("perfbench: deployment %q is gone", key)
	}
	return v.(*deployment), nil
}

var deploySeq atomic.Uint64

// deployment is one in-process cluster built like napletd builds a node by
// default: secure handshake, AES-256-GCM record layer, one metrics registry
// per node, and a location server reached over loopback by a client per
// node. Only the workload's agents run on it.
type deployment struct {
	key   string
	wl    *workload
	seed  int64
	tr    *tracer
	epoch time.Time
	// corruptAt, when positive, makes the sender flip one byte of that
	// measured-phase message; the benchmark's tests use it to prove that
	// verification fails the run.
	corruptAt int64

	nameSrv  *naming.Server
	dirs     []*timedDir
	nodes    []*naplet.Node
	regs     []*obs.Registry
	openBD   []*metrics.Breakdown
	suspBD   []*metrics.Breakdown
	resumeBD []*metrics.Breakdown

	opSeq   atomic.Uint64
	msgs    atomic.Int64 // application messages written, all agents
	payload atomic.Int64 // application payload bytes written, all agents
	sentMsg atomic.Int64 // measured-phase messages, for corruptAt

	started   atomic.Bool
	stopped   atomic.Bool
	start     chan struct{}
	ready     chan string
	done      chan string
	listening chan struct{}

	recs     []*recorder // one per client, plus one for the bulk sink
	bulkPool [][]byte
	failed   atomic.Int64 // operations that ended in an error or a violation

	mu         sync.Mutex
	violations []string
	warnings   []string // the program's last warnings, printed with violations
	hops       map[string]*hopRec
	bulkSent   int64
	bulkRecv   int64
}

// hopRec links the spans the hook and the location wrapper record to the
// hop in flight for an agent (traced runs only).
type hopRec struct {
	op        uint64
	span      uint32
	start     int64
	updateEnd int64
}

func (d *deployment) now() int64 { return int64(time.Since(d.epoch)) }

func (d *deployment) newOp() uint64 { return d.opSeq.Add(1) }

func (d *deployment) violation(format string, args ...any) {
	d.failed.Add(1)
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.violations) < 16 {
		d.violations = append(d.violations, fmt.Sprintf(format, args...))
	}
}

// warned keeps the last few warnings the nodes log, so a failed run can
// show what the program reported around the failure.
func (d *deployment) warned(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.warnings) == 8 {
		d.warnings = d.warnings[1:]
	}
	d.warnings = append(d.warnings, line)
}

func (d *deployment) violationList() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.violations...)
}

func (d *deployment) setHop(agentID string, h *hopRec) {
	d.mu.Lock()
	d.hops[agentID] = h
	d.mu.Unlock()
}

func (d *deployment) hop(agentID string) *hopRec {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hops[agentID]
}

// wrote accounts one application message and reports whether the sender
// must corrupt it.
func (d *deployment) wrote(n int) bool {
	d.msgs.Add(1)
	d.payload.Add(int64(n))
	if d.corruptAt <= 0 || !d.started.Load() {
		return false
	}
	return d.sentMsg.Add(1) == d.corruptAt
}

// rudpSent sums the control-channel requests every controller has sent.
func (d *deployment) rudpSent() uint64 {
	var n uint64
	for _, nd := range d.nodes {
		n += nd.Controller().ControlStats().RequestsSent
	}
	return n
}

// waitStart blocks until the measured phase starts or the host shuts down.
func (d *deployment) waitStart(ctx *naplet.Context) error {
	select {
	case <-d.start:
		return nil
	case <-ctx.Done():
		return errors.New("perfbench: host closed before the measured phase")
	}
}

// newDeployment builds the hosts, launches the workload's agents and waits
// until every client has been dispatched to its first host and is ready.
func newDeployment(wl *workload, seed int64, tr *tracer, epoch time.Time, corruptAt int64) (*deployment, error) {
	d := &deployment{
		key:       "d" + strconv.FormatUint(deploySeq.Add(1), 10),
		wl:        wl,
		seed:      seed,
		tr:        tr,
		epoch:     epoch,
		corruptAt: corruptAt,
		start:     make(chan struct{}),
		ready:     make(chan string, wl.clients),
		done:      make(chan string, wl.clients+1),
		listening: make(chan struct{}),
		hops:      make(map[string]*hopRec),
	}
	for i := 0; i <= wl.clients; i++ {
		d.recs = append(d.recs, &recorder{})
	}
	if wl.name == "bulk" {
		d.bulkPool = bulkPool(seed)
	}
	deployments.Store(d.key, d)
	if err := d.build(); err != nil {
		d.close()
		return nil, err
	}
	select {
	case <-time.After(setupTimeout):
		d.close()
		return nil, fmt.Errorf("perfbench: %s clients not ready after %v: %v", wl.name, setupTimeout, d.violationList())
	case err := <-d.readyAll():
		if err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

const setupTimeout = 30 * time.Second

func (d *deployment) readyAll() <-chan error {
	out := make(chan error, 1)
	go func() {
		for i := 0; i < d.wl.clients; i++ {
			select {
			case <-d.ready:
			case id := <-d.done:
				out <- fmt.Errorf("perfbench: %s ended during setup: %v", id, d.violationList())
				return
			}
		}
		out <- nil
	}()
	return out
}

func (d *deployment) build() error {
	svc := naming.NewService()
	srv, err := naming.NewServer(svc, "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("starting location server: %w", err)
	}
	d.nameSrv = srv
	reg := naplet.NewRegistry()
	reg.Register("perfbench.Client", &Client{})
	reg.Register("perfbench.Echo", &Echo{})
	reg.Register("perfbench.Sink", &Sink{})
	for _, name := range hostNames {
		cli, err := naming.NewClient(srv.Addr())
		if err != nil {
			return fmt.Errorf("connecting to location server: %w", err)
		}
		dir := &timedDir{inner: cli, d: d}
		d.dirs = append(d.dirs, dir)
		met := obs.NewRegistry()
		bd := [3]*metrics.Breakdown{metrics.NewBreakdown(), metrics.NewBreakdown(), metrics.NewBreakdown()}
		node, err := naplet.NewNode(naplet.Config{
			Name:      name,
			Directory: dir,
			Registry:  reg,
			Metrics:   met,
			Logger:    obs.NewLogger(d.warned, obs.LevelWarn),
			Core: core.Config{
				OpenBreakdown:    bd[0],
				SuspendBreakdown: bd[1],
				ResumeBreakdown:  bd[2],
			},
		})
		if err != nil {
			return fmt.Errorf("starting node %s: %w", name, err)
		}
		node.Host().AddHook(ledgerHook{d: d})
		d.nodes = append(d.nodes, node)
		d.regs = append(d.regs, met)
		d.openBD = append(d.openBD, bd[0])
		d.suspBD = append(d.suspBD, bd[1])
		d.resumeBD = append(d.resumeBD, bd[2])
	}
	var stationary naplet.Behavior = &Echo{Dep: d.key}
	if d.wl.name == "bulk" {
		stationary = &Sink{Dep: d.key}
	}
	if err := d.nodes[homeHost].Launch(srvID, stationary); err != nil {
		return err
	}
	for i := 0; i < d.wl.clients; i++ {
		c := &Client{Dep: d.key, Kind: d.wl.name, Index: i, Host: launchHost}
		if err := d.nodes[launchHost].Launch(clientID(i), c); err != nil {
			return err
		}
	}
	return nil
}

func clientID(i int) string { return "c" + strconv.Itoa(i) }

// dock returns the docking address of host i.
func (d *deployment) dock(i int) string { return d.nodes[i].DockAddr() }

// begin starts the measured phase.
func (d *deployment) begin() {
	if !d.started.Swap(true) {
		close(d.start)
	}
}

// stop ends the measured phase and waits until every client has finished
// its last operation and closed its connections (and, for bulk, until the
// sink has verified the last byte).
func (d *deployment) stop(timeout time.Duration) error {
	d.stopped.Store(true)
	d.begin()
	want := d.wl.clients
	if d.wl.name == "bulk" {
		want++
	}
	deadline := time.After(timeout)
	for i := 0; i < want; i++ {
		select {
		case <-d.done:
		case <-deadline:
			return fmt.Errorf("perfbench: %d of %d %s agents still running %v after stop%s",
				want-i, want, d.wl.name, timeout, dumpStacks(d.wl.name+"-"+strconv.FormatInt(d.seed, 10)+"-"+d.key))
		}
	}
	return nil
}

// dumpStacks writes every goroutine's stack to a file under .bench_build,
// so a hang can be read after the run, and says where.
func dumpStacks(name string) string {
	path := filepath.Join(".bench_build", "stacks-"+name+".txt")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return ""
	}
	f, err := os.Create(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	if err := pprof.Lookup("goroutine").WriteTo(f, 2); err != nil {
		return ""
	}
	return "; goroutine stacks in " + path
}

// closeWithin closes the deployment, giving up after timeout: a teardown
// that hangs is reported instead of hanging the run.
func (d *deployment) closeWithin(timeout time.Duration) error {
	closed := make(chan struct{})
	go func() {
		d.close()
		close(closed)
	}()
	select {
	case <-closed:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("perfbench: %s teardown still running after %v", d.wl.name, timeout)
	}
}

// close shuts every node and the location service down.
func (d *deployment) close() {
	for _, n := range d.nodes {
		n.Close()
	}
	for _, dir := range d.dirs {
		dir.inner.Close()
	}
	if d.nameSrv != nil {
		d.nameSrv.Close()
	}
	deployments.Delete(d.key)
}

// timedDir is the Directory every node is built with: it forwards to the
// location server's client and, in traced runs, records a span per call.
type timedDir struct {
	inner *naming.Client
	d     *deployment
}

func (t *timedDir) Register(ctx context.Context, agentID string, loc naming.Location) error {
	sp := t.d.tr.begin(spanRegister, 0, 0)
	err := t.inner.Register(ctx, agentID, loc)
	t.d.tr.end(sp)
	return err
}

func (t *timedDir) Update(ctx context.Context, agentID string, loc naming.Location, epoch uint64) error {
	if t.d.tr == nil {
		return t.inner.Update(ctx, agentID, loc, epoch)
	}
	h := t.d.hop(agentID)
	if h == nil {
		h = &hopRec{}
	}
	sp := t.d.tr.begin(spanUpdate, h.op, h.span)
	err := t.inner.Update(ctx, agentID, loc, epoch)
	t.d.tr.end(sp)
	t.d.mu.Lock()
	h.updateEnd = t.d.now()
	t.d.mu.Unlock()
	return err
}

func (t *timedDir) Deregister(ctx context.Context, agentID string) error {
	sp := t.d.tr.begin(spanRegister, 0, 0)
	err := t.inner.Deregister(ctx, agentID)
	t.d.tr.end(sp)
	return err
}

func (t *timedDir) Lookup(ctx context.Context, agentID string) (naming.Record, error) {
	sp := t.d.tr.begin(spanLookup, 0, 0)
	rec, err := t.inner.Lookup(ctx, agentID)
	t.d.tr.end(sp)
	return rec, err
}

// ledgerHook runs after the NapletSocket controller's hook on every host
// (hooks run in the order they were added), so its PreDepart marks the end
// of the connection suspend and its PostArrive the end of the resume.
type ledgerHook struct{ d *deployment }

func (h ledgerHook) HookName() string { return "perfbench" }

func (h ledgerHook) PreDepart(agentID string) ([]byte, error) {
	if tr := h.d.tr; tr != nil {
		if rec := h.d.hop(agentID); rec != nil {
			tr.add(span{kind: spanDepart, id: tr.newID(), parent: rec.span, op: rec.op, start: rec.start, end: h.d.now()})
		}
	}
	return nil, nil
}

func (h ledgerHook) PostArrive(agentID string, _ []byte) error {
	if tr := h.d.tr; tr != nil {
		if rec := h.d.hop(agentID); rec != nil {
			h.d.mu.Lock()
			start := rec.updateEnd
			h.d.mu.Unlock()
			tr.add(span{kind: spanArrive, id: tr.newID(), parent: rec.span, op: rec.op, start: start, end: h.d.now()})
		}
	}
	return nil
}

func (h ledgerHook) OnTerminate(string) {}
