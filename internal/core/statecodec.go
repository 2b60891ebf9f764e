package core

import (
	"encoding/binary"
	"fmt"

	"naplet/internal/wire"
)

// This file is the binary form of connection hand-over state, built on the
// length-prefixed helpers of package wire. One connState encoding serves
// both the migration bundle (inside a hookBlob) and the journal's KindConn
// records, so a connection has exactly one serialized form:
//
//	connState: id(16) localAgent(str) remoteAgent(str) sessionKey(bytes)
//	           nextSendSeq(8) lastEnqueued(8) recvBuf(entries)
//	           leftover(bytes) leftoverSeq(8) leftoverBuf(1) sendLog(entries)
//	           peerControlAddr(str) peerDataAddr(str) sendNonce(8)
//	           lastPeerNonce(8) owesSusRes(1) accepted(1)
//	entries:   count(4), then per entry seq(8) payload(bytes) viaBuffer(1)
//	hookBlob:  version(1) count(4) connState... hasListener(1)
//	           backlog-count(4) id(16)... trace(bytes) departedAt(time)
//
// A journal record is version(1) followed by one connState. Records are
// read back from disk and blobs arrive from the network, so decoding
// rejects any malformed or trailing input.

// stateVersion leads every hookBlob and journaled connState.
const stateVersion = 1

// Minimum encoded sizes, which bound hostile element counts.
const (
	minEntrySize     = 8 + 4 + 1
	minConnStateSize = 16 + 2 + 2 + 4 + 8 + 8 + 4 + 4 + 8 + 1 + 4 + 2 + 2 + 8 + 8 + 1 + 1
)

func appendEntries(b []byte, es []bufEntry) []byte {
	b = wire.AppendCount(b, len(es))
	for _, e := range es {
		b = binary.BigEndian.AppendUint64(b, e.Seq)
		b = wire.AppendBytes(b, e.Payload)
		b = wire.AppendBool(b, e.ViaBuffer)
	}
	return b
}

func takeEntries(d *wire.Decoder) []bufEntry {
	n := d.Count(minEntrySize)
	if n == 0 {
		return nil
	}
	es := make([]bufEntry, n)
	for i := range es {
		es[i] = bufEntry{Seq: d.Uint64(), Payload: d.Bytes(), ViaBuffer: d.Bool()}
	}
	return es
}

// size returns an upper bound on the connection's encoded length.
func (st *connState) size() int {
	n := minConnStateSize + len(st.LocalAgent) + len(st.RemoteAgent) + len(st.SessionKey) +
		len(st.Leftover) + len(st.PeerControlAddr) + len(st.PeerDataAddr)
	for _, e := range st.RecvBuf {
		n += minEntrySize + len(e.Payload)
	}
	for _, e := range st.SendLog {
		n += minEntrySize + len(e.Payload)
	}
	return n
}

func (st *connState) appendTo(b []byte) []byte {
	b = append(b, st.ID[:]...)
	b = wire.AppendString(b, st.LocalAgent)
	b = wire.AppendString(b, st.RemoteAgent)
	b = wire.AppendBytes(b, st.SessionKey)
	b = binary.BigEndian.AppendUint64(b, st.NextSendSeq)
	b = binary.BigEndian.AppendUint64(b, st.LastEnqueued)
	b = appendEntries(b, st.RecvBuf)
	b = wire.AppendBytes(b, st.Leftover)
	b = binary.BigEndian.AppendUint64(b, st.LeftoverSeq)
	b = wire.AppendBool(b, st.LeftoverBuf)
	b = appendEntries(b, st.SendLog)
	b = wire.AppendString(b, st.PeerControlAddr)
	b = wire.AppendString(b, st.PeerDataAddr)
	b = binary.BigEndian.AppendUint64(b, st.SendNonce)
	b = binary.BigEndian.AppendUint64(b, st.LastPeerNonce)
	b = wire.AppendBool(b, st.OwesSusRes)
	return wire.AppendBool(b, st.Accepted)
}

func takeConnState(d *wire.Decoder) connState {
	var st connState
	d.Fixed(st.ID[:])
	st.LocalAgent = d.Str()
	st.RemoteAgent = d.Str()
	st.SessionKey = d.Bytes()
	st.NextSendSeq = d.Uint64()
	st.LastEnqueued = d.Uint64()
	st.RecvBuf = takeEntries(d)
	st.Leftover = d.Bytes()
	st.LeftoverSeq = d.Uint64()
	st.LeftoverBuf = d.Bool()
	st.SendLog = takeEntries(d)
	st.PeerControlAddr = d.Str()
	st.PeerDataAddr = d.Str()
	st.SendNonce = d.Uint64()
	st.LastPeerNonce = d.Uint64()
	st.OwesSusRes = d.Bool()
	st.Accepted = d.Bool()
	return st
}

// encodeConnState returns the journal form of one connection.
func encodeConnState(st *connState) []byte {
	b := make([]byte, 0, 1+st.size())
	return st.appendTo(append(b, stateVersion))
}

// decodeConnState parses the journal form of one connection.
func decodeConnState(b []byte) (connState, error) {
	d := wire.NewDecoder(b)
	if err := takeVersion(&d); err != nil {
		return connState{}, err
	}
	st := takeConnState(&d)
	if err := d.Finish(); err != nil {
		return connState{}, fmt.Errorf("napletsocket: decoding connection state: %w", err)
	}
	return st, nil
}

func (hb *hookBlob) encode() []byte {
	n := 1 + 4 + 1 + 4 + 16*len(hb.Backlog) + 4 + len(hb.Trace) + 9
	for i := range hb.Conns {
		n += hb.Conns[i].size()
	}
	b := make([]byte, 0, n)
	b = append(b, stateVersion)
	b = wire.AppendCount(b, len(hb.Conns))
	for i := range hb.Conns {
		b = hb.Conns[i].appendTo(b)
	}
	b = wire.AppendBool(b, hb.HasListener)
	b = wire.AppendCount(b, len(hb.Backlog))
	for _, id := range hb.Backlog {
		b = append(b, id[:]...)
	}
	b = wire.AppendBytes(b, hb.Trace)
	return wire.AppendTime(b, hb.DepartedAt)
}

func decodeHookBlob(b []byte) (hookBlob, error) {
	d := wire.NewDecoder(b)
	if err := takeVersion(&d); err != nil {
		return hookBlob{}, err
	}
	var hb hookBlob
	if n := d.Count(minConnStateSize); n > 0 {
		hb.Conns = make([]connState, n)
		for i := range hb.Conns {
			hb.Conns[i] = takeConnState(&d)
		}
	}
	hb.HasListener = d.Bool()
	if n := d.Count(16); n > 0 {
		hb.Backlog = make([][16]byte, n)
		for i := range hb.Backlog {
			d.Fixed(hb.Backlog[i][:])
		}
	}
	hb.Trace = d.Bytes()
	hb.DepartedAt = d.Time()
	if err := d.Finish(); err != nil {
		return hookBlob{}, fmt.Errorf("napletsocket: decoding hand-over state: %w", err)
	}
	return hb, nil
}

func takeVersion(d *wire.Decoder) error {
	if v := d.Uint8(); d.Err() != nil || v != stateVersion {
		return fmt.Errorf("napletsocket: hand-over state version %d (want %d)", v, stateVersion)
	}
	return nil
}
