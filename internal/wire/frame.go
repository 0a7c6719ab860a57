// Package wire is the TCP shard transport of a federated KSpot deployment:
// the third substrate next to the deterministic simulator and the
// concurrent live deployment. A shard process (kspotd -serve-shard) wraps
// its local substrate in a Server; the coordinator process drives every
// shard through a Client, which implements engine.RoundShard, so the
// engine's Scheduler drives shard processes exactly like in-process
// shards.
//
// The protocol is a length-prefixed framed RPC over one TCP connection:
//
//	frame   := len(u32) seq(u64) type(u8) payload
//	len     counts seq+type+payload (9 ≤ len ≤ 9+MaxPayload)
//
// all integers little-endian, matching the model codec. The first frame on
// a connection must be a Hello carrying a magic, the protocol version and
// the shard identity (scenario name, shard index/count, node count); the
// server verifies it against its own deployment and answers Welcome, so a
// version-skewed or misdeployed peer fails the handshake instead of
// corrupting an epoch stream. There is one protocol version and nothing to
// negotiate: a peer speaking any other version is refused.
//
// Requests are at-most-once: the client stamps a monotone per-session
// sequence number on every call and retries the *same* sequence on timeout
// or reconnect; the server replays the cached response for a sequence it
// already executed and refuses sequences old enough to have been evicted
// from the replay cache. That is what makes per-connection
// retry/timeout/backoff — and the deterministic frame-level fault
// injection in faults.go — safe: an epoch round senses, charges and sweeps
// exactly once per sequence number no matter how many frames the socket
// loses, duplicates or delays, so a federated run over lossy sockets stays
// byte-identical to the in-process run.
//
// The connection is full-duplex: the client pipelines calls,
// demultiplexing responses back to their callers by sequence number. A
// whole federated epoch — the sense plus every shared-acquisition group —
// is ONE MsgEpochRound round trip, whose readings cross in a
// roster-positional delta encoding instead of keyed reading records (see
// round.go). Groups are set up with MsgAttach and dropped with MsgDetach.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Protocol constants.
const (
	// Magic opens every handshake payload ("KSPW", little-endian).
	Magic uint32 = 0x5750534B
	// Version is the protocol version; peers must match exactly.
	Version uint16 = 2
	// MaxPayload bounds a frame's payload. The largest legitimate frames
	// are epoch-round replies, whose readings blocks cost a roster bitmap
	// plus at most 9 varint bytes per present node. Node ids top out at
	// 65,535, so even a shard holding every id senses into ~600 KB, and a
	// 250-node shard's whole round is a few KB; a garbage length prefix is
	// rejected before any allocation.
	MaxPayload = 1 << 20

	frameHeaderSize = 4 + 8 + 1 // len + seq + type
)

// MsgType tags a frame.
type MsgType uint8

// Frame types. Requests are client→server, replies server→client.
const (
	MsgInvalid         MsgType = iota
	MsgHello                   // handshake request: identity + version
	MsgWelcome                 // handshake reply: server identity
	MsgError                   // reply: application error (string payload)
	MsgAttach                  // attach a query: qid, algorithm, SQL text
	MsgAttached                // reply: qid
	MsgDetach                  // drop an attached query: qid
	MsgDetached                // reply: qid
	MsgHistoric                // run a historic execution: exec, algo, k, window, agg
	MsgTopK                    // reply: exec, node count, (group, s64 sum) records
	MsgFetch                   // phase-2 targeted fetch: exec, group ids
	MsgSums                    // reply: exec, (group, s64 sum) records
	MsgRelease                 // drop a historic execution's cached state: exec
	MsgReleased                // reply: exec
	MsgStats                   // fetch the shard's traffic/energy counters
	MsgStatsReply              // reply: JSON stats.RunStats
	MsgClose                   // graceful session close
	MsgClosed                  // reply: acknowledged
	MsgEpochRound              // epoch round: epoch + every group's query id
	MsgEpochRoundReply         // reply: sense readings + every group's acquisition
	MsgSnapshot                // fetch one bounded chunk of the shard state: offset
	MsgSnapshotChunk           // reply: total size, offset, chunk bytes
	MsgRestore                 // push one bounded chunk of a shard state: total, offset, bytes
	MsgRestored                // reply: bytes received so far, applied flag
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgWelcome:
		return "welcome"
	case MsgError:
		return "error"
	case MsgAttach:
		return "attach"
	case MsgAttached:
		return "attached"
	case MsgDetach:
		return "detach"
	case MsgDetached:
		return "detached"
	case MsgHistoric:
		return "historic"
	case MsgTopK:
		return "topk"
	case MsgFetch:
		return "fetch"
	case MsgSums:
		return "sums"
	case MsgRelease:
		return "release"
	case MsgReleased:
		return "released"
	case MsgStats:
		return "stats"
	case MsgStatsReply:
		return "stats-reply"
	case MsgClose:
		return "close"
	case MsgClosed:
		return "closed"
	case MsgEpochRound:
		return "epoch-round"
	case MsgEpochRoundReply:
		return "epoch-round-reply"
	case MsgSnapshot:
		return "snapshot"
	case MsgSnapshotChunk:
		return "snapshot-chunk"
	case MsgRestore:
		return "restore"
	case MsgRestored:
		return "restored"
	default:
		return fmt.Sprintf("msg(%d)", uint8(t))
	}
}

// Frame is one protocol frame. Payload is owned by the decoder's caller.
type Frame struct {
	Seq     uint64
	Type    MsgType
	Payload []byte
}

// AppendFrame appends the wire form of f to dst and returns the result.
func AppendFrame(dst []byte, f Frame) []byte {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(9+len(f.Payload)))
	binary.LittleEndian.PutUint64(hdr[4:], f.Seq)
	hdr[12] = byte(f.Type)
	dst = append(dst, hdr[:]...)
	return append(dst, f.Payload...)
}

// DecodeFrame decodes one frame from the front of b, returning the frame
// and the number of bytes consumed. The payload aliases b. Truncated input
// returns io.ErrUnexpectedEOF; a length prefix below the fixed header or
// above MaxPayload is rejected before any payload is touched.
func DecodeFrame(b []byte) (Frame, int, error) {
	if len(b) < frameHeaderSize {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint32(b[0:])
	if n < 9 {
		return Frame{}, 0, fmt.Errorf("wire: frame length %d below header size", n)
	}
	if n-9 > MaxPayload {
		return Frame{}, 0, fmt.Errorf("wire: frame payload %d exceeds %d", n-9, MaxPayload)
	}
	total := int(4 + n)
	if len(b) < total {
		return Frame{}, 0, io.ErrUnexpectedEOF
	}
	f := Frame{
		Seq:     binary.LittleEndian.Uint64(b[4:]),
		Type:    MsgType(b[12]),
		Payload: b[frameHeaderSize:total],
	}
	return f, total, nil
}

// ReadFrame reads one frame from r, rejecting oversized length prefixes
// before allocating. The payload is freshly allocated.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	if n < 9 {
		return Frame{}, fmt.Errorf("wire: frame length %d below header size", n)
	}
	if n-9 > MaxPayload {
		return Frame{}, fmt.Errorf("wire: frame payload %d exceeds %d", n-9, MaxPayload)
	}
	f := Frame{
		Seq:  binary.LittleEndian.Uint64(hdr[4:]),
		Type: MsgType(hdr[12]),
	}
	if n > 9 {
		f.Payload = make([]byte, n-9)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return Frame{}, err
		}
	}
	return f, nil
}

// WriteFrame writes one frame to w, reusing *buf as the encode buffer.
func WriteFrame(w io.Writer, buf *[]byte, f Frame) error {
	*buf = AppendFrame((*buf)[:0], f)
	_, err := w.Write(*buf)
	return err
}

// Hello is the handshake request: the client announces the protocol
// version and the deployment identity it expects on the far end. Nonce
// identifies the client session — a reconnect of the same session keeps
// its at-most-once replay state on the server, a new session resets it.
type Hello struct {
	Version  uint16
	Shard    uint16 // shard index the client believes it is dialing
	Shards   uint16 // total shard count of the deployment
	Nodes    uint16 // sensor node count of this shard's sub-scenario
	Nonce    uint64
	Scenario string // flat scenario name
}

// Welcome is the handshake reply: the server's own identity.
type Welcome struct {
	Version uint16
	Shard   uint16
	Nodes   uint16
	Name    string // shard display name (panels, error tags)
}

// AppendHello appends the wire form of h.
func AppendHello(dst []byte, h Hello) []byte {
	var buf [20]byte
	binary.LittleEndian.PutUint32(buf[0:], Magic)
	binary.LittleEndian.PutUint16(buf[4:], h.Version)
	binary.LittleEndian.PutUint16(buf[6:], h.Shard)
	binary.LittleEndian.PutUint16(buf[8:], h.Shards)
	binary.LittleEndian.PutUint16(buf[10:], h.Nodes)
	binary.LittleEndian.PutUint64(buf[12:], h.Nonce)
	dst = append(dst, buf[:]...)
	return appendString(dst, h.Scenario)
}

// checkPreamble verifies a handshake payload's magic and protocol version
// — the fields every version lays out identically — before anything else
// is decoded, so a peer of another version is refused by name rather than
// misparsed.
func checkPreamble(b []byte) error {
	if len(b) < 6 {
		return io.ErrUnexpectedEOF
	}
	if m := binary.LittleEndian.Uint32(b[0:]); m != Magic {
		return fmt.Errorf("wire: bad handshake magic %#x", m)
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != Version {
		return fmt.Errorf("wire: protocol version %d, this peer speaks %d", v, Version)
	}
	return nil
}

// DecodeHello decodes a handshake request, rejecting bad magic, another
// protocol version, truncation and trailing garbage.
func DecodeHello(b []byte) (Hello, error) {
	if err := checkPreamble(b); err != nil {
		return Hello{}, err
	}
	if len(b) < 20 {
		return Hello{}, io.ErrUnexpectedEOF
	}
	h := Hello{
		Version: binary.LittleEndian.Uint16(b[4:]),
		Shard:   binary.LittleEndian.Uint16(b[6:]),
		Shards:  binary.LittleEndian.Uint16(b[8:]),
		Nodes:   binary.LittleEndian.Uint16(b[10:]),
		Nonce:   binary.LittleEndian.Uint64(b[12:]),
	}
	s, rest, err := decodeString(b[20:])
	if err != nil {
		return Hello{}, err
	}
	if len(rest) != 0 {
		return Hello{}, fmt.Errorf("wire: %d trailing bytes after hello", len(rest))
	}
	h.Scenario = s
	return h, nil
}

// AppendWelcome appends the wire form of w.
func AppendWelcome(dst []byte, w Welcome) []byte {
	var buf [10]byte
	binary.LittleEndian.PutUint32(buf[0:], Magic)
	binary.LittleEndian.PutUint16(buf[4:], w.Version)
	binary.LittleEndian.PutUint16(buf[6:], w.Shard)
	binary.LittleEndian.PutUint16(buf[8:], w.Nodes)
	dst = append(dst, buf[:]...)
	return appendString(dst, w.Name)
}

// DecodeWelcome decodes a handshake reply, with DecodeHello's checks.
func DecodeWelcome(b []byte) (Welcome, error) {
	if err := checkPreamble(b); err != nil {
		return Welcome{}, err
	}
	if len(b) < 10 {
		return Welcome{}, io.ErrUnexpectedEOF
	}
	w := Welcome{
		Version: binary.LittleEndian.Uint16(b[4:]),
		Shard:   binary.LittleEndian.Uint16(b[6:]),
		Nodes:   binary.LittleEndian.Uint16(b[8:]),
	}
	s, rest, err := decodeString(b[10:])
	if err != nil {
		return Welcome{}, err
	}
	if len(rest) != 0 {
		return Welcome{}, fmt.Errorf("wire: %d trailing bytes after welcome", len(rest))
	}
	w.Name = s
	return w, nil
}

// appendString appends a u16-length-prefixed string.
func appendString(dst []byte, s string) []byte {
	if len(s) > 0xFFFF {
		s = s[:0xFFFF]
	}
	var n [2]byte
	binary.LittleEndian.PutUint16(n[:], uint16(len(s)))
	dst = append(dst, n[:]...)
	return append(dst, s...)
}

// decodeString decodes a u16-length-prefixed string from the front of b.
func decodeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", b, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint16(b[0:]))
	if len(b) < 2+n {
		return "", b, io.ErrUnexpectedEOF
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}
