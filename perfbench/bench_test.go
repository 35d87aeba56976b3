package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"sigstream"
	"sigstream/internal/client"
	"sigstream/internal/gen"
	"sigstream/internal/ingest"
	"sigstream/internal/stream"
)

var sigserverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sigserverBin = filepath.Join(dir, "sigserver")
	if out, err := exec.Command("go", "build", "-o", sigserverBin, "sigstream/cmd/sigserver").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build sigserver: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	_ = os.RemoveAll(dir)
	os.Exit(code)
}

// spec is the part of BENCHMARK.json the tests check against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyRun runs one workload at tiny sizes.
func tinyRun(t *testing.T, w workload, seed int64, traced bool) result {
	t.Helper()
	e := &env{sigserver: sigserverBin, work: filepath.Join(t.TempDir(), "run"), seed: seed,
		seconds: 0.5, sz: tinySizes, out: io.Discard}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		t.Fatal(err)
	}
	res, err := runOne(e, w, traced)
	if err != nil {
		t.Fatalf("%s seed %d traced=%v: %v", w.name, seed, traced, err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s seed %d traced=%v: result %+v", w.name, seed, traced, res)
	}
	return res
}

// checkMetrics asserts that got holds exactly the wanted names, each
// with its unit and a finite value.
func checkMetrics(t *testing.T, label string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", label, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, want %q", label, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s is %v", label, name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: unexpected metric %s", label, name)
		}
	}
}

func names(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestTinyRunsEmitEveryMetric runs each workload at tiny sizes, untraced
// with two seeds and traced with one, and checks every named metric and
// unit against BENCHMARK.json. The second seed must change the inputs
// but not the metric set.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts sigserver processes")
	}
	s := loadSpec(t)
	e2e := map[string]string{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layers := map[string]string{}
	for _, m := range s.PerLayer {
		layers[m.Name] = m.Unit
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, sw := range s.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is unknown", sw.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			first := tinyRun(t, w, 1, false)
			checkMetrics(t, w.name+" seed 1", first.Metrics, e2e)
			second := tinyRun(t, w, 2, false)
			if a, b := names(first.Metrics), names(second.Metrics); fmt.Sprint(a) != fmt.Sprint(b) {
				t.Errorf("seed 2 changed the metric set: %v vs %v", a, b)
			}
			traced := tinyRun(t, w, 1, true)
			checkMetrics(t, w.name+" traced", traced.Metrics, layers)
		})
	}
}

func TestSecondSeedChangesInputs(t *testing.T) {
	a := &env{seed: 1, sz: tinySizes}
	b := &env{seed: 2, sz: tinySizes}
	for _, f := range []func(*env) *keyStream{durableStream, gatherStream,
		func(e *env) *keyStream { return multitenantStreams(e)[0] }} {
		x, y := f(a), f(b)
		if len(x.keys) != len(y.keys) {
			t.Fatalf("stream length depends on the seed: %d vs %d", len(x.keys), len(y.keys))
		}
		same := 0
		for i := range x.keys {
			if x.keys[i] == y.keys[i] {
				same++
			}
		}
		if same == len(x.keys) {
			t.Error("a second seed produced the same inputs")
		}
		if z := f(a); fmt.Sprint(z.keys[:10]) != fmt.Sprint(x.keys[:10]) {
			t.Error("the same seed produced different inputs")
		}
	}
}

func isGate(err error) bool {
	var g *gateError
	return errors.As(err, &g)
}

func TestCheckpointGateTripsOnTamperedImage(t *testing.T) {
	img := []byte("a checkpoint image")
	if err := sameCheckpoint(img, append([]byte(nil), img...)); err != nil {
		t.Fatalf("identical images: %v", err)
	}
	tampered := append([]byte(nil), img...)
	tampered[3] ^= 1
	if err := sameCheckpoint(img, tampered); !isGate(err) {
		t.Fatalf("tampered image: got %v, want a gate error", err)
	}
}

// trackerTop feeds a stream to a tracker and returns its top-k.
func trackerTop(ks *keyStream, mem, k int) []stream.Entry {
	sh := sigstream.NewSharded(sigstream.Config{MemoryBytes: mem}, 2)
	for i, it := range ks.items {
		sh.Insert(it)
		if ks.periodAfter(i) {
			sh.EndPeriod()
		}
	}
	var out []stream.Entry
	for _, e := range sh.TopK(k) {
		out = append(out, stream.Entry{Item: e.Item, Frequency: e.Frequency,
			Persistency: e.Persistency, Significance: e.Significance})
	}
	return out
}

func TestAccuracyGateTripsOnWrongOracle(t *testing.T) {
	cfg := gen.Config{N: 20000, M: 2500, Periods: 4, Skew: 1.1, Head: 50, TailWindowFrac: 0.25, Seed: 1}
	ks := newKeyStream(cfg)
	top := trackerTop(ks, 4<<10, 100)
	at := func(top []stream.Entry, periods uint64) []evalPoint {
		return []evalPoint{{pos: len(ks.keys), periods: periods, top: top}}
	}
	acc, err := ks.scorePoints(at(top, 4), 100, nil)
	if err != nil {
		t.Fatalf("right oracle: %v", err)
	}
	if acc.precision <= 0 || acc.precision > 1 || acc.are < 0 {
		t.Fatalf("right oracle: implausible accuracy %+v", acc)
	}
	cfg.Seed = 2
	wrong := newKeyStream(cfg)
	if _, err := wrong.scorePoints(at(top, 4), 100, nil); !isGate(err) {
		t.Fatalf("wrong oracle: got %v, want a gate error", err)
	}
	if _, err := ks.scorePoints(at(top, 1), 100, nil); !isGate(err) {
		t.Fatalf("too few periods: got %v, want a gate error", err)
	}
}

func TestViewGateTripsOnInflatedOrWrongView(t *testing.T) {
	cfg := gen.Config{N: 20000, M: 2500, Periods: 4, Skew: 1.1, Head: 50, TailWindowFrac: 0.25, Seed: 3}
	ks := newKeyStream(cfg)
	parts := []*sigstream.Sharded{
		sigstream.NewSharded(sigstream.Config{MemoryBytes: 8 << 10}, 2),
		sigstream.NewSharded(sigstream.Config{MemoryBytes: 8 << 10}, 2),
	}
	for i, it := range ks.items {
		parts[it%2].Insert(it)
		if ks.periodAfter(i) {
			parts[0].EndPeriod()
			parts[1].EndPeriod()
		}
	}
	var images [][]byte
	for _, p := range parts {
		img, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, img)
	}
	merged, err := sigstream.MergeShardedCheckpoints(images...)
	if err != nil {
		t.Fatal(err)
	}
	var view []stream.Entry
	for _, e := range merged.TopK(1 << 20) {
		view = append(view, stream.Entry{Item: e.Item, Frequency: e.Frequency,
			Persistency: e.Persistency, Significance: e.Significance})
	}
	acked := uint64(len(ks.items))
	if err := sameView(images, view, acked); err != nil {
		t.Fatalf("matching view: %v", err)
	}
	// Both replicas of a partition merged: every count doubles.
	if err := sameView(append(images, images[0]), view, acked); !isGate(err) {
		t.Fatalf("replica counted twice: got %v, want a gate error", err)
	}
	bad := append([]stream.Entry(nil), view...)
	bad[0].Frequency++
	if err := sameView(images, bad, acked); !isGate(err) {
		t.Fatalf("inflated view entry: got %v, want a gate error", err)
	}
	if err := sameView(images, view[1:], acked); !isGate(err) {
		t.Fatalf("view missing an entry: got %v, want a gate error", err)
	}
}

// TestNonOKAckCountsAsFailure serves a listener that refuses every
// frame with a throttled ack; the sender must count the failures, which
// lower success_share, and drainClean must refuse to go on.
func TestNonOKAckCountsAsFailure(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var hdr [ingest.HeaderSize]byte
		for {
			if _, err := io.ReadFull(c, hdr[:]); err != nil {
				return
			}
			n := binary.LittleEndian.Uint32(hdr[4:])
			body := make([]byte, n+ingest.TrailerSize)
			if _, err := io.ReadFull(c, body); err != nil {
				return
			}
			h, _, _, err := ingest.ParsePayload(body[:n])
			if err != nil {
				return
			}
			ack := ingest.AppendAck(nil, ingest.Ack{Seq: h.Seq, Status: ingest.StatusThrottled, RetryAfter: 1})
			if _, err := c.Write(ack); err != nil {
				return
			}
		}
	}()
	wc, err := dialWire(ln.Addr().String(), "", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := wc.send([]string{"a", "b"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := wc.drain(); err != nil {
		t.Errorf("drain: %v; refused frames are counted, not errors", err)
	}
	if err := wc.drainClean(); err == nil {
		t.Error("drainClean reported no failure after refused frames")
	}
	_, acked, frames, failed := wc.snapshot()
	wc.close()
	<-served
	if acked != 0 || frames != 0 || failed != 3 {
		t.Fatalf("acked %d, ok frames %d, failed %d; want 0, 0, 3", acked, frames, failed)
	}
}

// TestHTTPErrorCountsAsFailure answers every insert with a 503; the
// writer must report the failed request.
func TestHTTPErrorCountsAsFailure(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"error":"unavailable"}`))
	}))
	defer srv.Close()
	e := &env{seed: 1, sz: tinySizes, out: io.Discard}
	mt := &multitenant{e: e, streams: multitenantStreams(e)[:1], pos: []int{0}, periods: []uint64{0},
		ns: []string{"bench-0"}, n: &node{httpAddr: srv.Listener.Addr().String()}}
	ops, n, err := mt.write(context.Background(), client.New(srv.URL, nil), 0, 32, nil, nil)
	if err == nil || ops != 1 || n != 0 {
		t.Fatalf("write against a failing server: ops %d, keys %d, err %v", ops, n, err)
	}
	if mt.pos[0] != 0 {
		t.Fatal("a refused batch advanced the stream")
	}
}

// fakeBench is a liveBench whose measured phase refuses some writes.
type fakeBench struct{}

func (fakeBench) setup(int) (float64, error)  { return 1, nil }
func (fakeBench) accuracy() (accuracy, error) { return accuracy{precision: 0.9, are: 0.1}, nil }
func (fakeBench) rssMiB() (float64, error)    { return 10, nil }
func (fakeBench) pids() []int                 { return nil }
func (fakeBench) finish(*live, bool) error    { return nil }
func (fakeBench) close()                      {}
func (fakeBench) measure(time.Duration, *tracer) (phase, error) {
	return phase{opsPerS: 100, opNs: 1e7, compare: 1, acks: []float64{1, 2, 3},
		attempted: 200, failed: 5}, nil
}

func TestFailedOperationsLowerSuccessShare(t *testing.T) {
	e := &env{seconds: 1, sz: tinySizes, out: io.Discard}
	lv, err := runLive(e, false, fakeBench{}, "fake")
	if err != nil {
		t.Fatal(err)
	}
	if got := lv.metrics["success_share"].Value; got != 0.975 {
		t.Fatalf("success_share = %v, want 0.975", got)
	}
	if lv.attempted != 200 || lv.failed != 5 {
		t.Fatalf("attempted %d failed %d, want 200 and 5", lv.attempted, lv.failed)
	}
}

func TestCPUClocks(t *testing.T) {
	burn := func() {
		x := 0
		for i := range 20_000_000 {
			x ^= i * i
		}
		probeSink.Add(uint64(x))
	}
	byPid0, err := cpuTime(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	burn()
	self, err := cpuTime(0)
	if err != nil {
		t.Fatal(err)
	}
	byPid1, err := cpuTime(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if byPid1 <= byPid0 || byPid1 < self {
		t.Fatalf("process clock by pid went %v -> %v, own clock read %v between", byPid0, byPid1, self)
	}
	// A pid of 0 stands for a stopped process and adds nothing.
	total, err := cpuTotal([]int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	after, err := cpuTime(0)
	if err != nil {
		t.Fatal(err)
	}
	if total < self || total > after {
		t.Fatalf("cpuTotal of stopped processes = %v, want between %v and %v", total, self, after)
	}

	stop := make(chan struct{})
	time.AfterFunc(200*time.Millisecond, func() { close(stop) })
	runs, err := speedProbe(20*time.Millisecond, stop)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) < 2 {
		t.Fatalf("probe ran %d times in 200ms at a 20ms period", len(runs))
	}
	for _, d := range runs {
		if d <= 0 {
			t.Fatalf("probe run took %v of CPU time", d)
		}
	}
	if s := probeSpeed(runs); s <= 0 || math.IsInf(s, 0) {
		t.Fatalf("probeSpeed = %v", s)
	}
}
