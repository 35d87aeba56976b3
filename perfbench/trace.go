package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into the system.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Op     int64  `json:"op"`     // spans of one operation share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay only a nil check.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// open is a started span; close it with end.
type open struct {
	t      *tracer
	id, op int64
	parent int64
	name   string
	start  time.Time
}

// begin starts a span under parent (nil for a root). A root span starts
// a new operation.
func (t *tracer) begin(name string, parent *open) *open {
	if t == nil {
		return nil
	}
	o := &open{t: t, id: t.ids.Add(1), name: name}
	if parent != nil {
		o.parent, o.op = parent.id, parent.op
	} else {
		o.op = o.id
	}
	o.start = time.Now()
	return o
}

// end closes the span and returns its duration.
func (o *open) end() time.Duration {
	if o == nil {
		return 0
	}
	now := time.Now()
	o.t.add(span{ID: o.id, Parent: o.parent, Op: o.op, Name: o.name,
		Start: int64(o.start.Sub(o.t.origin)), End: int64(now.Sub(o.t.origin))})
	return now.Sub(o.start)
}

// record adds a finished root span.
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	id := t.ids.Add(1)
	t.add(span{ID: id, Op: id, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
}

// child adds a finished span under the span with the given id.
func (t *tracer) child(name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(span{ID: t.ids.Add(1), Parent: parent, Op: parent, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// all returns a copy of the recorded spans.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span as one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// layerTimes aggregates spans by name: every span's own duration and its
// self time, the part of its interval no child span covers.
type layerTimes struct {
	dur  map[string][]float64 // ns
	self map[string][]float64 // ns
}

func aggregate(spans []span) layerTimes {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	lt := layerTimes{dur: map[string][]float64{}, self: map[string][]float64{}}
	for _, s := range spans {
		d := float64(s.End - s.Start)
		lt.dur[s.Name] = append(lt.dur[s.Name], d)
		lt.self[s.Name] = append(lt.self[s.Name], d-covered(s, kids[s.ID]))
	}
	return lt
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) float64 {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		if x[1] > curHi {
			curHi = x[1]
		}
	}
	total += curHi - curLo
	return float64(total)
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// timingTransport records one span per request, from sending it to the
// end of its response body, under the span id currently stored in
// parent. Checkpoint fetches are "cluster.fetch"; every other request is
// "cluster.other". It also counts checkpoint bytes received.
type timingTransport struct {
	base       http.RoundTripper
	tr         *tracer
	parent     atomic.Int64
	fetchBytes atomic.Int64
}

// RoundTrip implements http.RoundTripper.
func (tt *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := tt.base.RoundTrip(req)
	name := "cluster.other"
	if strings.HasSuffix(req.URL.Path, "/checkpoint") {
		name = "cluster.fetch"
	}
	if err != nil {
		tt.tr.child(name, tt.parent.Load(), start, time.Now())
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, tt: tt, name: name, start: start,
		parent: tt.parent.Load(), count: name == "cluster.fetch"}
	return resp, nil
}

// timedBody closes its request's span when the body is fully read or
// closed, whichever comes first.
type timedBody struct {
	io.ReadCloser
	tt     *timingTransport
	name   string
	start  time.Time
	parent int64
	count  bool
	done   bool
}

// Read implements io.Reader, counting checkpoint bytes.
func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.count {
		b.tt.fetchBytes.Add(int64(n))
	}
	if err != nil {
		b.finish()
	}
	return n, err
}

// Close implements io.Closer.
func (b *timedBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *timedBody) finish() {
	if !b.done {
		b.done = true
		b.tt.tr.child(b.name, b.parent, b.start, time.Now())
	}
}
