package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"kspot/internal/model"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Seq: 1, Type: MsgHello, Payload: []byte("hello")},
		{Seq: 0, Type: MsgClose, Payload: nil},
		{Seq: ^uint64(0), Type: MsgEpochRoundReply, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
	}
	var stream []byte
	for _, f := range frames {
		stream = AppendFrame(stream, f)
	}
	rest := stream
	for i, want := range frames {
		got, n, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Seq != want.Seq || got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: %+v != %+v", i, got, want)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left over", len(rest))
	}

	// The reader path must agree with the in-memory path.
	r := bytes.NewReader(stream)
	for i, want := range frames {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("read frame %d: %v", i, err)
		}
		if got.Seq != want.Seq || got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("read frame %d: %+v != %+v", i, got, want)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("after last frame: %v, want EOF", err)
	}
}

func TestFrameRejects(t *testing.T) {
	full := AppendFrame(nil, Frame{Seq: 7, Type: MsgEpochRound, Payload: []byte{1, 2, 3}})

	// Every truncation of a valid frame must fail cleanly, never panic.
	for cut := 0; cut < len(full); cut++ {
		if _, _, err := DecodeFrame(full[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
		if _, err := ReadFrame(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncated read at %d succeeded", cut)
		}
	}

	// A declared length below the seq+type minimum is malformed.
	runt := []byte{8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	if _, _, err := DecodeFrame(runt); err == nil {
		t.Fatal("runt length accepted")
	}

	// An oversized declared length must be refused before any allocation.
	huge := []byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 0, 0, 0, 0, 1}
	if _, _, err := DecodeFrame(huge); err == nil {
		t.Fatal("oversized frame accepted")
	}
	if _, err := ReadFrame(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized frame read")
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	h := Hello{Version: Version, Shard: 2, Shards: 4, Nodes: 250, Nonce: 0xDEADBEEF00000001, Scenario: "scale-1000"}
	got, err := DecodeHello(AppendHello(nil, h))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("hello %+v != %+v", got, h)
	}
	w := Welcome{Version: Version, Shard: 2, Nodes: 250, Name: "shard-2"}
	gw, err := DecodeWelcome(AppendWelcome(nil, w))
	if err != nil {
		t.Fatal(err)
	}
	if gw != w {
		t.Fatalf("welcome %+v != %+v", gw, w)
	}
}

func TestHandshakeRejects(t *testing.T) {
	valid := AppendHello(nil, Hello{Version: Version, Scenario: "demo"})
	for cut := 0; cut < len(valid); cut++ {
		if _, err := DecodeHello(valid[:cut]); err == nil {
			t.Fatalf("truncated hello at %d accepted", cut)
		}
	}
	// Wrong magic.
	bad := append([]byte(nil), valid...)
	bad[0] ^= 0xFF
	if _, err := DecodeHello(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("corrupt magic: %v", err)
	}
	// Trailing garbage.
	if _, err := DecodeHello(append(append([]byte(nil), valid...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	for cut := 0; cut < 10; cut++ {
		wl := AppendWelcome(nil, Welcome{Version: Version, Name: "shard-0"})
		if cut < len(wl) {
			if _, err := DecodeWelcome(wl[:cut]); err == nil {
				t.Fatalf("truncated welcome at %d accepted", cut)
			}
		}
	}

	// A v1 peer is refused at the handshake, on either side, by name: v1
	// laid out magic, version, shard, shards, nodes, capability bits and
	// nonce before the scenario string.
	v1Hello := make([]byte, 22)
	binary.LittleEndian.PutUint32(v1Hello[0:], Magic)
	binary.LittleEndian.PutUint16(v1Hello[4:], 1)
	binary.LittleEndian.PutUint16(v1Hello[8:], 1)
	binary.LittleEndian.PutUint16(v1Hello[10:], 14)
	binary.LittleEndian.PutUint16(v1Hello[12:], 1) // the retired epoch-round capability
	v1Hello = appendString(v1Hello, "icde09-demo")
	v1Welcome := make([]byte, 12)
	binary.LittleEndian.PutUint32(v1Welcome[0:], Magic)
	binary.LittleEndian.PutUint16(v1Welcome[4:], 1)
	v1Welcome = appendString(v1Welcome, "shard-0")
	addr, _ := startTestServer(t)
	demo := testClientConfig(addr)
	rows := []struct {
		name string
		err  func() error
		want string
	}{
		{"v1 hello", func() error { _, err := DecodeHello(v1Hello); return err }, "version 1"},
		{"v1 welcome", func() error { _, err := DecodeWelcome(v1Welcome); return err }, "version 1"},
		{"v1 hello at a server", func() error { return helloAt(addr, v1Hello) }, "version 1"},
		{"roster-less dial", func() error {
			cfg := demo
			cfg.Roster = nil
			_, err := Dial(cfg)
			return err
		}, "roster"},
		{"short-roster dial", func() error {
			cfg := demo
			cfg.Roster = cfg.Roster[1:]
			_, err := Dial(cfg)
			return err
		}, "roster"},
	}
	for _, r := range rows {
		if err := r.err(); err == nil || !strings.Contains(err.Error(), r.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", r.name, err, r.want)
		}
	}
	cl, err := Dial(demo)
	if err != nil {
		t.Fatalf("a v2 dial with the roster failed: %v", err)
	}
	cl.Close()
}

// helloAt sends a raw hello payload to a server and returns its handshake
// refusal, or nil when it answers with a welcome.
func helloAt(addr string, hello []byte) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	var wbuf []byte
	if err := WriteFrame(conn, &wbuf, Frame{Seq: 1, Type: MsgHello, Payload: hello}); err != nil {
		return err
	}
	f, err := ReadFrame(conn)
	if err != nil {
		return err
	}
	if f.Type == MsgError {
		return errors.New(string(f.Payload))
	}
	return nil
}

func TestPayloadCodecsRoundTrip(t *testing.T) {
	// Historic TOP-K rows carry signed 64-bit centi-sums: values beyond the
	// 6-byte snapshot answer codec's int32 saturation must survive.
	big := []model.Answer{
		{Group: 7, Score: model.Value(30_000_000.25)},
		{Group: 2, Score: model.Value(-30_000_000.25)},
	}
	exec, nodes, gotBig, err := DecodeTopK(AppendTopK(nil, 42, 250, big))
	if err != nil {
		t.Fatal(err)
	}
	if exec != 42 || nodes != 250 || !model.EqualAnswers(gotBig, big) {
		t.Fatalf("topk round-trip: exec %d nodes %d %v", exec, nodes, gotBig)
	}

	// Fetch / sums.
	ids := []model.GroupID{5, 1, 9}
	fexec, gotIDs, err := DecodeFetch(AppendFetch(nil, 42, ids))
	if err != nil {
		t.Fatal(err)
	}
	if fexec != 42 || len(gotIDs) != 3 {
		t.Fatalf("fetch round-trip: exec %d ids %v", fexec, gotIDs)
	}
	sums := map[model.GroupID]int64{5: -123456789, 1: 0, 9: 1 << 40}
	sexec, gotSums, err := DecodeSums(AppendSums(nil, 42, sums))
	if err != nil {
		t.Fatal(err)
	}
	if sexec != 42 || len(gotSums) != len(sums) {
		t.Fatalf("sums round-trip: exec %d %v", sexec, gotSums)
	}
	for g, s := range sums {
		if gotSums[g] != s {
			t.Fatalf("group %d: %d != %d", g, gotSums[g], s)
		}
	}

	// Attach and historic requests.
	att, err := DecodeAttach(AppendAttach(nil, AttachReq{Query: 3, Algo: "mint", SQL: "SELECT TOP 3 ..."}))
	if err != nil {
		t.Fatal(err)
	}
	if att.Query != 3 || att.Algo != "mint" || att.SQL != "SELECT TOP 3 ..." {
		t.Fatalf("attach round-trip: %+v", att)
	}
	hr, err := DecodeHistoric(AppendHistoric(nil, HistoricReq{Exec: 9, K: 4, Window: 16, Agg: model.AggSum, Algo: "tja"}))
	if err != nil {
		t.Fatal(err)
	}
	if hr != (HistoricReq{Exec: 9, K: 4, Window: 16, Agg: model.AggSum, Algo: "tja"}) {
		t.Fatalf("historic round-trip: %+v", hr)
	}
}

func TestPayloadCodecsReject(t *testing.T) {
	valids := [][]byte{
		AppendU32(nil, 7),
		AppendTopK(nil, 1, 2, []model.Answer{{Group: 1, Score: 2}}),
		AppendFetch(nil, 1, []model.GroupID{1}),
		AppendSums(nil, 1, map[model.GroupID]int64{1: 2}),
		AppendAttach(nil, AttachReq{Query: 1, Algo: "mint", SQL: "x"}),
		AppendHistoric(nil, HistoricReq{Exec: 1, K: 1, Window: 1, Agg: model.AggAvg, Algo: "tja"}),
	}
	decoders := []func([]byte) error{
		func(b []byte) error { _, err := DecodeU32(b); return err },
		func(b []byte) error { _, _, _, err := DecodeTopK(b); return err },
		func(b []byte) error { _, _, err := DecodeFetch(b); return err },
		func(b []byte) error { _, _, err := DecodeSums(b); return err },
		func(b []byte) error { _, err := DecodeAttach(b); return err },
		func(b []byte) error { _, err := DecodeHistoric(b); return err },
	}
	for i, valid := range valids {
		if err := decoders[i](valid); err != nil {
			t.Fatalf("codec %d rejected its own output: %v", i, err)
		}
		for cut := 0; cut < len(valid); cut++ {
			if err := decoders[i](valid[:cut]); err == nil {
				t.Fatalf("codec %d: truncation at %d accepted", i, cut)
			}
		}
		if err := decoders[i](append(append([]byte(nil), valid...), 0xFF)); err == nil {
			t.Fatalf("codec %d: trailing byte accepted", i)
		}
	}
}

// TestFixed64RoundTrip pins the wire fixed-point against the model's
// quantization: every centi-quantized value a shard can produce must
// round-trip the socket losslessly — the root of the byte-identity
// guarantee for remote deployments.
func TestFixed64RoundTrip(t *testing.T) {
	for _, v := range []model.Value{0, 0.01, -0.01, 55.25, -273.15, 1e7, -1e7} {
		q := model.Quantize(v)
		if got := unfixed64(fixed64(q)); got != q {
			t.Fatalf("value %v: %v != %v after wire round-trip", v, got, q)
		}
	}
}
