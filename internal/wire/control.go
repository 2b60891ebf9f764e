package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MsgType enumerates the control messages of the NapletSocket protocol
// (Figure 3 of the paper). Requests travel from the initiating controller to
// its peer; verdicts travel back as the reply of the reliable-UDP exchange.
type MsgType uint8

const (
	// MsgInvalid is the zero value and never legal on the wire.
	MsgInvalid MsgType = iota

	// MsgConnect asks the peer controller to establish a new connection to
	// a resident agent (CONNECT in the paper). Its payload carries the
	// initiator's DH public key; the ACK carries the responder's.
	MsgConnect
	// MsgIDExchange completes establishment: the client reports its own
	// socket id after receiving the server's ACK+id.
	MsgIDExchange
	// MsgSuspend asks the peer to suspend the connection (SUS).
	MsgSuspend
	// MsgSusRes tells a peer whose suspend was parked with ACK_WAIT that the
	// high-priority migration finished and its blocked suspend may complete
	// (SUS_RES).
	MsgSusRes
	// MsgResume asks the peer to resume a suspended connection (RES). The
	// DataAddr field carries the mover's new redirector address.
	MsgResume
	// MsgClose asks the peer to close the connection (CLS).
	MsgClose
	// MsgHeartbeat probes peer liveness on the control channel; part of the
	// fault-tolerance extension, not the original paper protocol.
	MsgHeartbeat
)

// String returns the paper's name for the message type.
func (t MsgType) String() string {
	switch t {
	case MsgConnect:
		return "CONNECT"
	case MsgIDExchange:
		return "ID"
	case MsgSuspend:
		return "SUS"
	case MsgSusRes:
		return "SUS_RES"
	case MsgResume:
		return "RES"
	case MsgClose:
		return "CLS"
	case MsgHeartbeat:
		return "HEARTBEAT"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Verdict is the peer controller's reply to a control request.
type Verdict uint8

const (
	// VerdictInvalid is the zero value and never legal on the wire.
	VerdictInvalid Verdict = iota
	// VerdictAck grants the request (ACK).
	VerdictAck
	// VerdictAckWait grants a suspend but tells the low-priority requester
	// to wait until the high-priority peer finishes migrating (ACK_WAIT,
	// overlapped concurrent migration).
	VerdictAckWait
	// VerdictResumeWait parks a resume because the replier has a blocked
	// suspend of its own to finish first (RESUME_WAIT, non-overlapped
	// concurrent migration).
	VerdictResumeWait
	// VerdictReject denies the request (bad authentication, unknown
	// connection, policy denial, or illegal state).
	VerdictReject
)

// String returns the paper's name for the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictAck:
		return "ACK"
	case VerdictAckWait:
		return "ACK_WAIT"
	case VerdictResumeWait:
		return "RESUME_WAIT"
	case VerdictReject:
		return "REJECT"
	default:
		return fmt.Sprintf("Verdict(%d)", uint8(v))
	}
}

// TagSize is the length of the HMAC-SHA256 authentication tag on control
// messages.
const TagSize = 32

// ControlMsg is a control-channel request. Every message names the
// connection it operates on and the agents at both ends; messages past
// establishment are authenticated with an HMAC keyed by the connection's
// secret session key (Section 3.3 of the paper).
type ControlMsg struct {
	Type   MsgType
	ConnID ConnID
	// From and To are the agent ids of the sender and intended receiver.
	From, To string
	// Nonce is a strictly increasing per-connection counter used for replay
	// protection of authenticated operations.
	Nonce uint64
	// DataAddr is the redirector address the receiver should use to reach
	// the sender's data plane (set on MsgResume, and on MsgConnect for the
	// client's own redirector).
	DataAddr string
	// ControlAddr is the sender's control-channel address; a mover includes
	// it on MsgResume and MsgSusRes so the peer can reach it at its new
	// host.
	ControlAddr string
	// LastSeq carries a data-stream high-water mark where relevant.
	LastSeq uint64
	// TransportID names the shared per-host-pair transport the sender
	// reached the receiver's host through (set on MsgConnect): both sides
	// derive the connection's session key from that transport's secret,
	// amortising the Diffie-Hellman exchange across every stream the
	// transport carries. Zero in insecure mode.
	TransportID ConnID
	// TraceID and SpanID propagate the sender's tracing context so the
	// suspend/resume exchanges of one migration form a single cross-host
	// trace (observability extension, not part of the paper protocol).
	// All-zero when the sender is not tracing; covered by the HMAC like
	// every other field.
	TraceID [16]byte
	SpanID  [8]byte
	// LocEpoch is the sender's location epoch in the naming service: a
	// mover stamps its post-migration epoch on MsgResume and MsgSusRes so
	// the peer can advance (or epoch-guard-invalidate) its location cache
	// without re-consulting the registry. Zero when unknown, which peers
	// must treat as "invalidate unconditionally".
	LocEpoch uint64
	// Payload carries message-specific bytes.
	Payload []byte
	// Tag authenticates the message; all-zero for messages sent before a
	// session key exists (connect and id-exchange).
	Tag [TagSize]byte
}

// ControlReply is the response half of a control exchange.
type ControlReply struct {
	Verdict Verdict
	ConnID  ConnID
	// Reason is a human-readable explanation for VerdictReject.
	Reason string
	// LastSeq carries the replier's delivered data high-water mark on
	// resume acks, so the mover can retransmit anything the replier never
	// received (failure-recovery extension).
	LastSeq uint64
	// Payload carries reply-specific bytes.
	Payload []byte
	// Tag authenticates the reply under the session key, mirroring the
	// request tag.
	Tag [TagSize]byte
}

const controlMagic = 0x4e43 // "NC"

// ErrBadControl reports a malformed control message or reply.
var ErrBadControl = errors.New("wire: malformed control message")

// SigningBytes returns the canonical encoding of m with a zeroed tag; it is
// the input to the session HMAC.
func (m *ControlMsg) SigningBytes() []byte {
	saved := m.Tag
	m.Tag = [TagSize]byte{}
	b := m.Encode()
	m.Tag = saved
	return b
}

// Encode returns the canonical wire encoding of m.
func (m *ControlMsg) Encode() []byte {
	b := make([]byte, 0, 64+len(m.From)+len(m.To)+len(m.DataAddr)+len(m.Payload))
	b = binary.BigEndian.AppendUint16(b, controlMagic)
	b = append(b, byte(m.Type))
	b = append(b, m.ConnID[:]...)
	b = AppendString(b, m.From)
	b = AppendString(b, m.To)
	b = binary.BigEndian.AppendUint64(b, m.Nonce)
	b = AppendString(b, m.DataAddr)
	b = AppendString(b, m.ControlAddr)
	b = binary.BigEndian.AppendUint64(b, m.LastSeq)
	b = append(b, m.TransportID[:]...)
	b = append(b, m.TraceID[:]...)
	b = append(b, m.SpanID[:]...)
	b = binary.BigEndian.AppendUint64(b, m.LocEpoch)
	b = AppendBytes(b, m.Payload)
	b = append(b, m.Tag[:]...)
	return b
}

// DecodeControlMsg parses a canonical control message.
func DecodeControlMsg(b []byte) (*ControlMsg, error) {
	if len(b) < 2 || binary.BigEndian.Uint16(b) != controlMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadControl)
	}
	d := NewDecoder(b[2:])
	m := &ControlMsg{Type: MsgType(d.Uint8())}
	d.Fixed(m.ConnID[:])
	m.From = d.Str()
	m.To = d.Str()
	m.Nonce = d.Uint64()
	m.DataAddr = d.Str()
	m.ControlAddr = d.Str()
	m.LastSeq = d.Uint64()
	d.Fixed(m.TransportID[:])
	d.Fixed(m.TraceID[:])
	d.Fixed(m.SpanID[:])
	m.LocEpoch = d.Uint64()
	m.Payload = d.Bytes()
	d.Fixed(m.Tag[:])
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadControl, err)
	}
	if m.Type == MsgInvalid || m.Type > MsgHeartbeat {
		return nil, fmt.Errorf("%w: unknown type %d", ErrBadControl, m.Type)
	}
	return m, nil
}

// SigningBytes returns the canonical encoding of r with a zeroed tag.
func (r *ControlReply) SigningBytes() []byte {
	saved := r.Tag
	r.Tag = [TagSize]byte{}
	b := r.Encode()
	r.Tag = saved
	return b
}

// Encode returns the canonical wire encoding of r.
func (r *ControlReply) Encode() []byte {
	b := make([]byte, 0, 64+len(r.Reason)+len(r.Payload))
	b = binary.BigEndian.AppendUint16(b, controlMagic)
	b = append(b, byte(r.Verdict))
	b = append(b, r.ConnID[:]...)
	b = AppendString(b, r.Reason)
	b = binary.BigEndian.AppendUint64(b, r.LastSeq)
	b = AppendBytes(b, r.Payload)
	b = append(b, r.Tag[:]...)
	return b
}

// DecodeControlReply parses a canonical control reply.
func DecodeControlReply(b []byte) (*ControlReply, error) {
	if len(b) < 2 || binary.BigEndian.Uint16(b) != controlMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadControl)
	}
	d := NewDecoder(b[2:])
	r := &ControlReply{Verdict: Verdict(d.Uint8())}
	d.Fixed(r.ConnID[:])
	r.Reason = d.Str()
	r.LastSeq = d.Uint64()
	r.Payload = d.Bytes()
	d.Fixed(r.Tag[:])
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadControl, err)
	}
	if r.Verdict == VerdictInvalid || r.Verdict > VerdictReject {
		return nil, fmt.Errorf("%w: unknown verdict %d", ErrBadControl, r.Verdict)
	}
	return r, nil
}
