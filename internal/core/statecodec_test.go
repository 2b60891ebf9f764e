package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func connStateCases() map[string]connState {
	full := connState{
		ID:           [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		LocalAgent:   "walker",
		RemoteAgent:  "echoer",
		SessionKey:   bytes.Repeat([]byte{0xab}, 32),
		NextSendSeq:  42,
		LastEnqueued: 41,
		RecvBuf: []bufEntry{
			{Seq: 39, Payload: []byte("in flight"), ViaBuffer: true},
			{Seq: 40, Payload: nil, ViaBuffer: true},
			{Seq: 41, Payload: bytes.Repeat([]byte{7}, 300)},
		},
		Leftover:        []byte("tail"),
		LeftoverSeq:     38,
		LeftoverBuf:     true,
		SendLog:         []bufEntry{{Seq: 40, Payload: []byte("unacked")}, {Seq: 41, Payload: []byte{0}}},
		PeerControlAddr: "127.0.0.1:7400",
		PeerDataAddr:    "127.0.0.1:7401",
		SendNonce:       1<<63 + 1,
		LastPeerNonce:   ^uint64(0),
		OwesSusRes:      true,
		Accepted:        true,
	}
	return map[string]connState{
		"zero":  {},
		"full":  full,
		"empty": {LocalAgent: "a", SessionKey: []byte{}, RecvBuf: []bufEntry{}, Leftover: []byte{}, SendLog: []bufEntry{}},
		"empty-payloads": {
			RecvBuf: []bufEntry{{Seq: 1, Payload: []byte{}}},
			SendLog: []bufEntry{{Seq: 2, Payload: []byte{}, ViaBuffer: true}},
		},
	}
}

func hookBlobCases() map[string]hookBlob {
	cs := connStateCases()
	return map[string]hookBlob{
		"zero":        {},
		"listener":    {HasListener: true, Backlog: [][16]byte{{1}, {2, 3}}},
		"empty-lists": {Conns: []connState{}, Backlog: [][16]byte{}, Trace: []byte{}},
		"two-conns": {
			Conns:      []connState{cs["full"], cs["zero"]},
			Trace:      bytes.Repeat([]byte{0x5a}, 25),
			DepartedAt: time.Date(2004, 8, 15, 10, 30, 0, 987654321, time.UTC),
		},
		"pre-1970": {DepartedAt: time.Unix(-1, 1)},
	}
}

// The normalizers map a value onto the form decoding yields: empty slices
// come back nil and times carry no monotonic reading or zone.

func normEntries(es []bufEntry) []bufEntry {
	if len(es) == 0 {
		return nil
	}
	out := append([]bufEntry(nil), es...)
	for i := range out {
		out[i].Payload = normBytes(out[i].Payload)
	}
	return out
}

func normBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return b
}

func normConnState(st connState) connState {
	st.SessionKey = normBytes(st.SessionKey)
	st.Leftover = normBytes(st.Leftover)
	st.RecvBuf = normEntries(st.RecvBuf)
	st.SendLog = normEntries(st.SendLog)
	return st
}

func normHookBlob(hb hookBlob) hookBlob {
	if len(hb.Conns) == 0 {
		hb.Conns = nil
	} else {
		conns := make([]connState, len(hb.Conns))
		for i, st := range hb.Conns {
			conns[i] = normConnState(st)
		}
		hb.Conns = conns
	}
	if len(hb.Backlog) == 0 {
		hb.Backlog = nil
	}
	hb.Trace = normBytes(hb.Trace)
	if !hb.DepartedAt.IsZero() {
		hb.DepartedAt = time.Unix(0, hb.DepartedAt.UnixNano())
	}
	return hb
}

func TestConnStateRoundTrip(t *testing.T) {
	for name, in := range connStateCases() {
		t.Run(name, func(t *testing.T) {
			got, err := decodeConnState(encodeConnState(&in))
			if err != nil {
				t.Fatal(err)
			}
			if want := normConnState(in); !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip: got %+v, want %+v", got, want)
			}
		})
	}
}

func TestHookBlobRoundTrip(t *testing.T) {
	for name, in := range hookBlobCases() {
		t.Run(name, func(t *testing.T) {
			got, err := decodeHookBlob(in.encode())
			if err != nil {
				t.Fatal(err)
			}
			if want := normHookBlob(in); !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip: got %+v, want %+v", got, want)
			}
			if in.DepartedAt.IsZero() != got.DepartedAt.IsZero() ||
				(!in.DepartedAt.IsZero() && in.DepartedAt.UnixNano() != got.DepartedAt.UnixNano()) {
				t.Fatalf("DepartedAt %v came back as %v", in.DepartedAt, got.DepartedAt)
			}
		})
	}
}

func TestStateDecodersRejectEveryTruncation(t *testing.T) {
	for name, in := range connStateCases() {
		b := encodeConnState(&in)
		for i := 0; i < len(b); i++ {
			if _, err := decodeConnState(b[:i]); err == nil {
				t.Fatalf("connState %s: %d of %d bytes decoded without error", name, i, len(b))
			}
		}
	}
	for name, in := range hookBlobCases() {
		b := in.encode()
		for i := 0; i < len(b); i++ {
			if _, err := decodeHookBlob(b[:i]); err == nil {
				t.Fatalf("hookBlob %s: %d of %d bytes decoded without error", name, i, len(b))
			}
		}
	}
}

func TestStateDecodersRejectTrailingBytesAndBadVersion(t *testing.T) {
	full := connStateCases()["full"]
	b := encodeConnState(&full)
	if _, err := decodeConnState(append(b, 0)); err == nil {
		t.Error("connState with a trailing byte decoded")
	}
	b[0] = stateVersion + 1
	if _, err := decodeConnState(b); err == nil {
		t.Error("connState with a foreign version decoded")
	}
	hb := hookBlobCases()["two-conns"]
	if _, err := decodeHookBlob(append(hb.encode(), 0)); err == nil {
		t.Error("hookBlob with a trailing byte decoded")
	}
}

// TestStateCountsCheckedBeforeAllocation claims a huge element count in
// each counted field of an encoding that carries no elements: decoding must
// fail without sizing a slice from the claim.
func TestStateCountsCheckedBeforeAllocation(t *testing.T) {
	const recvBufAt = 1 + 16 + 2 + 2 + 4 + 8 + 8 // version, id, agents, key, seqs
	zero := connState{}
	st := encodeConnState(&zero)
	hb := (&hookBlob{}).encode()
	cases := map[string]struct {
		b      []byte
		at     int
		decode func([]byte) error
	}{
		"recvBuf": {st, recvBufAt, func(b []byte) error { _, err := decodeConnState(b); return err }},
		"conns":   {hb, 1, func(b []byte) error { _, err := decodeHookBlob(b); return err }},
		"backlog": {hb, 1 + 4 + 1, func(b []byte) error { _, err := decodeHookBlob(b); return err }},
	}
	for name, c := range cases {
		b := append([]byte(nil), c.b...)
		binary.BigEndian.PutUint32(b[c.at:], 1<<20)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.decode(b)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a count of 1M decoded", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("%s: decoder allocated %d bytes before rejecting the count", name, grew)
		}
	}
}

func FuzzDecodeConnState(f *testing.F) {
	for _, in := range connStateCases() {
		f.Add(encodeConnState(&in))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := decodeConnState(b)
		if err != nil {
			return
		}
		if again := encodeConnState(&st); !bytes.Equal(again, b) {
			t.Fatalf("decoded state re-encodes to %x, not %x", again, b)
		}
	})
}

func FuzzDecodeHookBlob(f *testing.F) {
	for _, in := range hookBlobCases() {
		f.Add(in.encode())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		hb, err := decodeHookBlob(b)
		if err != nil {
			return
		}
		if again := hb.encode(); !bytes.Equal(again, b) {
			t.Fatalf("decoded blob re-encodes to %x, not %x", again, b)
		}
	})
}
