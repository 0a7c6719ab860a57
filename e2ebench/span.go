package main

import (
	"encoding/json"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// epoch share Epoch; Parent is the id of the enclosing span (0 for a
// root). Times are nanoseconds since the tracer's origin.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Epoch  int64  `json:"epoch"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Shard  int    `json:"shard,omitempty"` // wire.exec spans: the serving shard
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and never reads the clock. The loop goroutine opens
// and closes spans strictly nested; the innermost open span is published
// through active/activeEpoch so spans recorded on other goroutines (the
// shard servers' request timings) can name it as their parent.
type tracer struct {
	on     bool
	origin time.Time

	mu    sync.Mutex
	spans []span

	nextID      atomic.Int64
	active      atomic.Int64
	activeEpoch atomic.Int64
	stack       []span // loop goroutine only
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, origin: time.Now()}
	t.activeEpoch.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span under the innermost open one. epoch < 0 inherits the
// parent's epoch.
func (t *tracer) begin(name string, epoch int64) {
	if !t.on {
		return
	}
	s := span{ID: t.nextID.Add(1), Name: name, Epoch: epoch}
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1].ID
		if epoch < 0 {
			s.Epoch = t.stack[n-1].Epoch
		}
	}
	s.Start = t.now()
	t.stack = append(t.stack, s)
	t.active.Store(s.ID)
	t.activeEpoch.Store(s.Epoch)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if !t.on {
		return
	}
	n := len(t.stack)
	s := t.stack[n-1]
	s.End = t.now()
	t.stack = t.stack[:n-1]
	if n > 1 {
		t.active.Store(t.stack[n-2].ID)
		t.activeEpoch.Store(t.stack[n-2].Epoch)
	} else {
		t.active.Store(0)
		t.activeEpoch.Store(-1)
	}
	t.add(s)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns every closed span.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.snapshot() {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// perEpoch sums the durations of the named spans per epoch id, over
// epochs in [from, to).
func (t *tracer) perEpoch(name string, from, to int64) []time.Duration {
	sums := map[int64]time.Duration{}
	for _, s := range t.snapshot() {
		if s.Name == name && s.Epoch >= from && s.Epoch < to {
			sums[s.Epoch] += s.dur()
		}
	}
	out := make([]time.Duration, 0, len(sums))
	for _, d := range sums {
		out = append(out, d)
	}
	return out
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedListener hands a shard's wire.Server connections that time each
// request from when its first bytes are read until the reply is written,
// as a "wire.exec" span under the benchmark loop's innermost open span.
type timedListener struct {
	net.Listener
	tr    *tracer
	shard int
}

func (l timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &timedConn{Conn: c, tr: l.tr, shard: l.shard}, nil
}

// timedConn is used by one server goroutine at a time, which reads a
// request and writes its reply before reading the next.
type timedConn struct {
	net.Conn
	tr    *tracer
	shard int

	reqStart  int64 // 0 while no request is being served
	reqParent int64 // the loop's innermost span when the request arrived
	reqEpoch  int64
}

func (c *timedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.reqStart == 0 {
		c.reqStart = c.tr.now()
		c.reqParent = c.tr.active.Load()
		c.reqEpoch = c.tr.activeEpoch.Load()
	}
	return n, err
}

// Write closes the request's span. Its parent is the loop span that was
// open when the request arrived, if that span is still open; a request
// the client sent on its own (a pipelined epoch round, say) spans loop
// calls and becomes a root.
func (c *timedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.reqStart != 0 {
		s := span{ID: c.tr.nextID.Add(1), Epoch: -1, Name: "wire.exec", Start: c.reqStart, End: c.tr.now(), Shard: c.shard}
		if c.reqParent != 0 && c.tr.active.Load() == c.reqParent {
			s.Parent, s.Epoch = c.reqParent, c.reqEpoch
		}
		c.tr.add(s)
		c.reqStart = 0
	}
	return n, err
}
