package wire

import (
	"sync"
	"sync/atomic"
)

// Frame payload buffers cycle at data-plane rate: one per received frame and
// one per send-log copy. Allocating each from the heap makes the garbage
// collector a per-message cost, so the data plane draws them from a small
// set of size-classed pools instead.
//
// Ownership protocol: GetPayload hands the caller an exclusively owned
// buffer; ownership then travels with the slice (receive buffer, send log,
// application via ReadMsg). Whoever drains the last reference — and is sure
// no snapshot, retransmit, or application alias is still reading it — calls
// PutPayload. A buffer that escapes to a component outside the protocol
// (e.g. a slice returned to the application by ReadMsg) is simply never
// returned; the pool refills itself through GetPayload misses.

// payloadClasses are the pooled capacity classes. A request is served from
// the smallest class that fits; anything above MaxFramePayload cannot occur
// (frames are bounded).
var payloadClasses = [...]int{1 << 10, 8 << 10, 64 << 10, MaxFramePayload}

var payloadPools [len(payloadClasses)]sync.Pool

// Pool effectiveness counters, exported to the observability layer through
// PoolStats (registered as /metrics gauges by the core controller).
var (
	poolHits    atomic.Uint64
	poolMisses  atomic.Uint64
	poolReturns atomic.Uint64
)

// PoolStats reports the cumulative payload-pool hits (Get served from a
// recycled buffer) and misses (Get fell through to a fresh allocation).
func PoolStats() (hits, misses uint64) {
	return poolHits.Load(), poolMisses.Load()
}

// PoolReturns reports the cumulative count of buffers returned through
// PutPayload — paired with PoolStats it lets leak tests assert that every
// pooled segment a component took ownership of eventually came back.
func PoolReturns() uint64 { return poolReturns.Load() }

// classFor returns the index of the smallest class with capacity >= n, or
// -1 when n exceeds the largest class.
func classFor(n int) int {
	for i, c := range payloadClasses {
		if n <= c {
			return i
		}
	}
	return -1
}

// GetPayload returns a buffer of length n, drawn from the pool when a
// recycled buffer of a suitable class is available. The caller owns the
// buffer exclusively until it passes ownership on or returns it with
// PutPayload.
func GetPayload(n int) []byte {
	ci := classFor(n)
	if ci < 0 {
		poolMisses.Add(1)
		return make([]byte, n)
	}
	if v := payloadPools[ci].Get(); v != nil {
		poolHits.Add(1)
		return (*(v.(*[]byte)))[:n]
	}
	poolMisses.Add(1)
	return make([]byte, payloadClasses[ci])[:n]
}

// PutPayload returns a buffer to the pool. It accepts any slice — including
// buffers that did not originate here (e.g. decoded checkpoint state):
// the buffer is filed under the largest class its capacity satisfies, and
// dropped when it is smaller than every class. Callers must not retain any
// alias to b after the call.
func PutPayload(b []byte) {
	c := cap(b)
	for i := len(payloadClasses) - 1; i >= 0; i-- {
		if c >= payloadClasses[i] {
			b = b[:payloadClasses[i]]
			payloadPools[i].Put(&b)
			poolReturns.Add(1)
			return
		}
	}
}
