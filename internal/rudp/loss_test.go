package rudp

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRequestsSurviveRandomLoss drives many requests through endpoints that
// randomly drop 30% of their outgoing packets in both directions: with
// retransmission every request must still complete, and the handler must
// run exactly once per request.
func TestRequestsSurviveRandomLoss(t *testing.T) {
	var handled sync.Map // request body -> invocation count
	h := func(_ netip.AddrPort, req []byte) []byte {
		key := string(req)
		v, _ := handled.LoadOrStore(key, new(atomic.Int64))
		v.(*atomic.Int64).Add(1)
		return append([]byte("ok:"), req...)
	}
	lossy := func(seed int64) func([]byte) bool {
		rng := rand.New(rand.NewSource(seed))
		var mu sync.Mutex
		return func([]byte) bool {
			mu.Lock()
			defer mu.Unlock()
			return rng.Float64() < 0.30
		}
	}
	server, err := Listen("127.0.0.1:0", h, Config{
		RetransmitInterval: 3 * time.Millisecond,
		MaxRetries:         40,
		DropFn:             lossy(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := Listen("127.0.0.1:0", nil, Config{
		RetransmitInterval: 3 * time.Millisecond,
		MaxRetries:         40,
		DropFn:             lossy(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const requests = 60
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf("req-%d", i)
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			resp, err := client.Request(ctx, server.Addr().String(), []byte(body))
			if err != nil {
				errs <- fmt.Errorf("%s: %w", body, err)
				return
			}
			if string(resp) != "ok:"+body {
				errs <- fmt.Errorf("%s: resp %q", body, resp)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Exactly-once despite duplicate deliveries.
	for i := 0; i < requests; i++ {
		key := fmt.Sprintf("req-%d", i)
		v, ok := handled.Load(key)
		if !ok {
			t.Fatalf("%s never handled", key)
		}
		if n := v.(*atomic.Int64).Load(); n != 1 {
			t.Fatalf("%s handled %d times", key, n)
		}
	}
	// And loss actually happened (the test exercised retransmission).
	if s := client.Stats(); s.Retransmits == 0 {
		t.Error("no retransmissions — loss injection ineffective")
	}
}
