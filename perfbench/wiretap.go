package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"revisionist/internal/dist/wire"
)

// workerKinds are the frame kinds of the worker conversation, in the order
// the per-layer metrics list them; any other kind is counted as "other".
var workerKinds = []string{
	wire.KindHello, wire.KindJob, wire.KindLease, wire.KindResult, wire.KindRetire,
	wire.KindPing, wire.KindPong, wire.KindShutdown, "other",
}

// captureCap bounds how many bytes of complete frames a tap keeps for the
// decode/encode replay; frames past it are still counted, and the replay's
// per-byte cost is scaled up to the full traffic.
const captureCap = 64 << 20

// kindStat is the traffic of one frame kind.
type kindStat struct{ frames, bytes int64 }

// wireTap aggregates the byte streams of a group of connections: bytes each
// way and time spent in Write. With frames set it also splits the traffic
// into wire frames by kind and captures complete frames for a replay.
type wireTap struct {
	frames   bool
	bytesIn  atomic.Int64
	bytesOut atomic.Int64
	write    busy

	mu      sync.Mutex
	kinds   map[string]*kindStat
	streams [][]byte // captured frame streams, one per connection direction
	room    int      // capture bytes left
}

func newWireTap(frames bool) *wireTap {
	return &wireTap{frames: frames, kinds: map[string]*kindStat{}, room: captureCap}
}

// conn wraps c so its traffic is counted on t.
func (t *wireTap) conn(c net.Conn) net.Conn {
	tc := &tapConn{Conn: c, t: t}
	if t.frames {
		tc.in, tc.out = &frameScanner{t: t}, &frameScanner{t: t}
	}
	return tc
}

// listener wraps ln so every accepted connection is counted on t.
func (t *wireTap) listener(ln net.Listener) net.Listener { return &tapListener{Listener: ln, t: t} }

// frame accounts one complete frame; it returns whether the scanner may
// keep it for the replay.
func (t *wireTap) frame(kind string, size int) (capture bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ks := t.kinds[kind]
	if ks == nil {
		ks = &kindStat{}
		t.kinds[kind] = ks
	}
	ks.frames++
	ks.bytes += int64(size)
	if t.room >= size {
		t.room -= size
		return true
	}
	t.room = 0 // keep captured streams gap-free: stop at the first frame that does not fit
	return false
}

func (t *wireTap) kindStats() map[string]kindStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]kindStat, len(t.kinds))
	for k, v := range t.kinds {
		out[k] = *v
	}
	return out
}

type tapListener struct {
	net.Listener
	t *wireTap
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return c, err
	}
	return l.t.conn(c), nil
}

// tapConn is a pass-through net.Conn. Reads come from one goroutine at a
// time and writes are serialized by wire.Conn, so each direction's scanner
// is used by one goroutine at a time.
type tapConn struct {
	net.Conn
	t       *wireTap
	in, out *frameScanner
	closed  sync.Once
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.t.bytesIn.Add(int64(n))
	if c.in != nil {
		c.in.feed(p[:n])
	}
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.t.write.done(start)
	c.t.bytesOut.Add(int64(n))
	if c.out != nil {
		c.out.feed(p[:n])
	}
	return n, err
}

// Close hands both captured streams to the tap once the connection is done.
func (c *tapConn) Close() error {
	err := c.Conn.Close()
	c.closed.Do(func() {
		for _, s := range []*frameScanner{c.in, c.out} {
			if s != nil {
				s.flush()
			}
		}
	})
	return err
}

// frameScanner splits one direction of a byte stream into wire frames (a
// 4-byte big-endian length, then that many bytes of JSON).
type frameScanner struct {
	t       *wireTap
	mu      sync.Mutex // feed and flush race only at Close
	cur     []byte     // the frame being assembled, header included
	capture []byte     // complete frames kept for the replay
	full    bool       // the capture stopped
}

func (s *frameScanner) feed(p []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(p) > 0 {
		if len(s.cur) < 4 {
			take := min(4-len(s.cur), len(p))
			s.cur = append(s.cur, p[:take]...)
			p = p[take:]
			if len(s.cur) < 4 {
				return
			}
		}
		need := 4 + int(binary.BigEndian.Uint32(s.cur[:4]))
		take := min(need-len(s.cur), len(p))
		s.cur = append(s.cur, p[:take]...)
		p = p[take:]
		if len(s.cur) == need {
			s.complete()
		}
	}
}

func (s *frameScanner) complete() {
	if s.t.frame(frameKind(s.cur[4:]), len(s.cur)) && !s.full {
		s.capture = append(s.capture, s.cur...)
	} else {
		s.full = true
	}
	s.cur = s.cur[:0]
}

func (s *frameScanner) flush() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.capture) > 0 {
		s.t.mu.Lock()
		s.t.streams = append(s.t.streams, s.capture)
		s.t.mu.Unlock()
	}
	s.capture = nil
}

// frameKind reads the envelope's Kind, which json.Marshal writes first.
func frameKind(body []byte) string {
	const prefix = `{"Kind":"`
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return "other"
	}
	rest := body[len(prefix):]
	end := bytes.IndexByte(rest, '"')
	if end < 0 {
		return "other"
	}
	return knownKind(string(rest[:end]))
}

// replayCost decodes every captured stream again with wire.Conn.Recv and
// re-encodes each message with Send to a discarding writer, and returns per
// kind the decode and encode time per captured byte.
func (t *wireTap) replayCost() (decodeNsPerByte, encodeNsPerByte map[string]float64, err error) {
	t.mu.Lock()
	streams := t.streams
	t.mu.Unlock()
	dec, enc, seen := map[string]int64{}, map[string]int64{}, map[string]int64{}
	sink := wire.NewConn(struct {
		io.Reader
		io.Writer
	}{eofReader{}, io.Discard})
	for _, stream := range streams {
		src := wire.NewConn(struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(stream), io.Discard})
		var kind string
		var size int
		src.SetObserver(func(_, k string, n int) { kind, size = k, n })
		for {
			start := time.Now()
			m, rerr := src.Recv()
			if errors.Is(rerr, io.EOF) {
				break
			}
			if rerr != nil {
				return nil, nil, rerr
			}
			decoded := time.Now()
			if err := sink.Send(m); err != nil {
				return nil, nil, err
			}
			k := knownKind(kind)
			dec[k] += int64(decoded.Sub(start))
			enc[k] += int64(time.Since(decoded))
			seen[k] += int64(size)
		}
	}
	decodeNsPerByte, encodeNsPerByte = map[string]float64{}, map[string]float64{}
	for k, n := range seen {
		decodeNsPerByte[k] = float64(dec[k]) / float64(n)
		encodeNsPerByte[k] = float64(enc[k]) / float64(n)
	}
	return decodeNsPerByte, encodeNsPerByte, nil
}

func knownKind(kind string) string {
	for _, k := range workerKinds {
		if k == kind {
			return kind
		}
	}
	return "other"
}

type eofReader struct{}

func (eofReader) Read([]byte) (int, error) { return 0, io.EOF }
