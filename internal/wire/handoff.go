package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// HandoffPurpose says why a data-plane TCP connection is arriving at a
// redirector (Section 3.4 of the paper).
type HandoffPurpose uint8

const (
	// HandoffInvalid is the zero value and never legal on the wire.
	HandoffInvalid HandoffPurpose = iota
	// HandoffConnect hands a brand-new data socket to the NapletServerSocket
	// of the target agent during connection setup.
	HandoffConnect
	// HandoffResume hands a replacement data socket to a suspended
	// NapletSocket during connection resume.
	HandoffResume
)

// String names the purpose.
func (p HandoffPurpose) String() string {
	switch p {
	case HandoffConnect:
		return "connect"
	case HandoffResume:
		return "resume"
	default:
		return fmt.Sprintf("HandoffPurpose(%d)", uint8(p))
	}
}

// HandoffHeader is the first thing written on a freshly dialed data socket,
// telling the redirector where to deliver the connection. For a resume the
// Token authenticates the caller under the connection's session key, so a
// third party cannot steal a suspended connection.
type HandoffHeader struct {
	Purpose HandoffPurpose
	// ConnID identifies the connection (both purposes).
	ConnID ConnID
	// TargetAgent is the resident agent being connected to (connect only).
	TargetAgent string
	// FromAgent is the dialing agent (connect only; resume identity is
	// established by the token).
	FromAgent string
	// Nonce feeds the resume token to prevent replay.
	Nonce uint64
	// Token = HMAC(sessionKey, canonical header bytes with zero token).
	Token [TagSize]byte
}

const handoffMagic = 0x4e48 // "NH"

// SigningBytes returns the canonical encoding of h with a zeroed token.
func (h *HandoffHeader) SigningBytes() []byte {
	saved := h.Token
	h.Token = [TagSize]byte{}
	b := h.encode()
	h.Token = saved
	return b
}

func (h *HandoffHeader) encode() []byte {
	b := make([]byte, 0, 64+len(h.TargetAgent)+len(h.FromAgent))
	b = binary.BigEndian.AppendUint16(b, handoffMagic)
	b = append(b, byte(h.Purpose))
	b = append(b, h.ConnID[:]...)
	b = AppendString(b, h.TargetAgent)
	b = AppendString(b, h.FromAgent)
	b = binary.BigEndian.AppendUint64(b, h.Nonce)
	b = append(b, h.Token[:]...)
	return b
}

// Write writes the header, length-prefixed, to w.
func (h *HandoffHeader) Write(w io.Writer) error {
	body := h.encode()
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(len(body)))
	if _, err := w.Write(lenb[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// maxHandoffSize bounds a handoff header read so a garbage peer cannot make
// the redirector allocate unbounded memory.
const maxHandoffSize = 4096

// ReadHandoffHeader reads a length-prefixed handoff header from r.
func ReadHandoffHeader(r io.Reader) (*HandoffHeader, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenb[:])
	if n > maxHandoffSize {
		return nil, fmt.Errorf("%w: handoff header %d bytes", ErrBadControl, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return decodeHandoff(body)
}

func decodeHandoff(b []byte) (*HandoffHeader, error) {
	if len(b) < 2 || binary.BigEndian.Uint16(b) != handoffMagic {
		return nil, fmt.Errorf("%w: bad handoff magic", ErrBadControl)
	}
	d := NewDecoder(b[2:])
	h := &HandoffHeader{Purpose: HandoffPurpose(d.Uint8())}
	d.Fixed(h.ConnID[:])
	h.TargetAgent = d.Str()
	h.FromAgent = d.Str()
	h.Nonce = d.Uint64()
	d.Fixed(h.Token[:])
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadControl, err)
	}
	if h.Purpose != HandoffConnect && h.Purpose != HandoffResume {
		return nil, fmt.Errorf("%w: unknown purpose %d", ErrBadControl, h.Purpose)
	}
	return h, nil
}

// HandoffStatus is the redirector's one-byte reply on the data socket.
type HandoffStatus uint8

const (
	// HandoffOK means the socket was delivered to its target.
	HandoffOK HandoffStatus = 1
	// HandoffDenied means authentication or lookup failed; the socket will
	// be closed by the redirector.
	HandoffDenied HandoffStatus = 2
)

// WriteHandoffStatus writes the status byte.
func WriteHandoffStatus(w io.Writer, s HandoffStatus) error {
	_, err := w.Write([]byte{byte(s)})
	return err
}

// ReadHandoffStatus reads the status byte.
func ReadHandoffStatus(r io.Reader) (HandoffStatus, error) {
	var b [1]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	s := HandoffStatus(b[0])
	if s != HandoffOK && s != HandoffDenied {
		return 0, fmt.Errorf("%w: unknown handoff status %d", ErrBadControl, b[0])
	}
	return s, nil
}
