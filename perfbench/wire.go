package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sigstream/internal/ingest"
)

// wireConn is a closed-loop sender of the framed binary ingest protocol
// with at most window frames unacknowledged. It is built from the
// ingest package's frame and ack codecs rather than ingest.Conn because
// it needs the time at which each frame's ack arrives: a separate
// goroutine reads the in-order acks and times every frame from its send.
type wireConn struct {
	c        net.Conn
	ns       string
	inflight chan time.Time // send times of unacked frames, in order; its capacity is the window
	exited   chan struct{}  // closed when the ack reader returns
	seq      uint32
	payload  []byte
	frame    []byte
	// outstanding counts frames sent and not yet fully accounted; the
	// reader decrements it only after counting the ack.
	outstanding atomic.Int64

	mu      sync.Mutex // guards the fields below, written by the ack reader
	lat     []float64  // per-frame ack latency, ms
	acked   uint64     // arrivals acknowledged OK
	frames  uint64     // frames acknowledged OK
	failed  uint64     // frames answered with a non-OK status
	readErr error
	spans   *tracer
}

// dialWire connects to a binary ingest listener.
func dialWire(addr, ns string, window int, tr *tracer) (*wireConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	w := &wireConn{
		c:        c,
		ns:       ns,
		inflight: make(chan time.Time, window),
		exited:   make(chan struct{}),
		spans:    tr,
	}
	go w.readAcks()
	return w, nil
}

// readAcks consumes acks in order until the connection closes.
func (w *wireConn) readAcks() {
	defer close(w.exited)
	br := bufio.NewReaderSize(w.c, 4<<10)
	var buf [ingest.AckSize]byte
	for {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			w.mu.Lock()
			w.readErr = err
			w.mu.Unlock()
			return
		}
		now := time.Now()
		a, err := ingest.ParseAck(buf[:])
		if err != nil {
			w.mu.Lock()
			w.readErr = err
			w.mu.Unlock()
			return
		}
		sent := <-w.inflight // never blocks: a frame is queued before it is written
		w.mu.Lock()
		w.lat = append(w.lat, float64(now.Sub(sent))/float64(time.Millisecond))
		if a.Status == ingest.StatusOK {
			w.frames++
			w.acked += uint64(a.Accepted)
		} else {
			w.failed++
		}
		w.mu.Unlock()
		w.outstanding.Add(-1)
		w.spans.record("client.frame", sent, now)
	}
}

// send writes one batch frame, first waiting for room in the window.
func (w *wireConn) send(keys []string) error {
	var err error
	w.payload, err = ingest.AppendBatchPayload(w.payload[:0], w.seq, w.ns, keys, nil)
	if err != nil {
		return err
	}
	return w.write()
}

// period writes one period-boundary frame.
func (w *wireConn) period() error {
	var err error
	w.payload, err = ingest.AppendPeriodPayload(w.payload[:0], w.seq, w.ns)
	if err != nil {
		return err
	}
	return w.write()
}

func (w *wireConn) write() error {
	w.seq++
	w.frame = ingest.AppendFrame(w.frame[:0], w.payload)
	w.outstanding.Add(1)
	select {
	case w.inflight <- time.Now():
	case <-w.exited:
		return w.err()
	}
	if _, err := w.c.Write(w.frame); err != nil {
		return err
	}
	return nil
}

// drain waits until every frame sent so far is acknowledged. Refused
// frames are counted, not returned: only a broken connection is an error.
func (w *wireConn) drain() error {
	for w.outstanding.Load() > 0 {
		select {
		case <-w.exited:
			return w.err()
		case <-time.After(100 * time.Microsecond):
		}
	}
	return nil
}

// drainClean is drain for phases whose inputs the oracle must see
// whole: any refused frame is an error.
func (w *wireConn) drainClean() error {
	if err := w.drain(); err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed > 0 {
		return fmt.Errorf("%d frames answered with a non-OK status", w.failed)
	}
	return nil
}

func (w *wireConn) err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.readErr != nil {
		return fmt.Errorf("ingest connection: %w", w.readErr)
	}
	return errors.New("ingest connection closed")
}

// close shuts the connection and waits for the ack reader.
func (w *wireConn) close() {
	_ = w.c.Close()
	<-w.exited
}

// snapshot returns the counters and a copy of the latencies.
func (w *wireConn) snapshot() (lat []float64, acked, frames, failed uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]float64(nil), w.lat...), w.acked, w.frames, w.failed
}
