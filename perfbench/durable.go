package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"sigstream/internal/client"
	"sigstream/internal/gen"
)

// durable is the ingest-durable workload: one closed-loop binary ingest
// connection into the default tenant of a sigserver that snapshots on
// shutdown, then a WAL-logged tail recovered after SIGKILL.
//
// The measured phase runs without the WAL. The benchmark may write only
// inside its checkout, so the WAL would sit on the checkout's disk, and
// one inline fsync per batch there measured the disk instead of the
// program: on a shared virtual disk throughput fell run after run, from
// 2700 to 980 batches per second over five runs. The WAL is
// exercised where its cost is CPU, not fsync: the tail is logged in
// large frames (few fsyncs) and replayed on every recovery.
type durable struct {
	e       *env
	ks      *keyStream
	all     nodes // every node started, for close
	n       *node // the current one
	dir     string
	ingest  string // binary ingest address
	pos     int    // arrivals sent so far in the cyclic replay
	periods uint64
	evals   []evalPoint
}

func durableStream(e *env) *keyStream {
	n := e.sz.durArrivals
	// Many more distinct keys than cells, so LTC's replacement path runs
	// hot; few long periods, so inserts dominate the CLOCK sweep.
	return newKeyStream(gen.Config{N: n, M: n / 8, Periods: e.sz.durPeriods, Skew: 1.1,
		Head: 1000, TailWindowFrac: 0.25, Seed: e.seed, Label: "ingest-durable"})
}

func newDurable(e *env) (liveBench, string) {
	return &durable{e: e, ks: durableStream(e)}, "one binary batch of " + strconv.Itoa(e.sz.durBatch) + " keys"
}

// setup starts a fresh node, warm-fills it and restarts it gracefully,
// so the final snapshot is a deterministic cut.
func (d *durable) setup(i int) (float64, error) {
	if d.n != nil {
		d.n.kill()
	}
	dir := filepath.Join(d.e.work, "durable-"+strconv.Itoa(i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	ingestAddr, err := freeAddr()
	if err != nil {
		return 0, err
	}
	n, err := newNode(d.e.sigserver, filepath.Join(dir, "sigserver.log"),
		"-shards", "2", "-mem", strconv.Itoa(d.e.sz.durMem),
		"-ingest-addr", ingestAddr, "-snapshot-dir", filepath.Join(dir, "snap"))
	if err != nil {
		return 0, err
	}
	d.n, d.dir, d.ingest, d.pos, d.periods = d.all.add(n), dir, ingestAddr, 0, 0
	start := time.Now()
	if err := n.startReady(); err != nil {
		return 0, err
	}
	if err := d.warmFill(); err != nil {
		return 0, err
	}
	if err := n.stop(); err != nil {
		return 0, err
	}
	if err := n.startReady(); err != nil {
		return 0, err
	}
	return sinceSeconds(start), nil
}

// warmFill sends the whole stream once, stopping at evalPoints period
// boundaries to drain the connection and record the top-k for scoring.
func (d *durable) warmFill() error {
	wc, err := dialWire(d.ingest, "", d.e.sz.durWindow, nil)
	if err != nil {
		return err
	}
	defer wc.close()
	d.evals = d.evals[:0]
	c := client.New(d.n.url(), nil)
	for i := 1; i <= d.e.sz.evalPoints; i++ {
		target := len(d.ks.keys) / d.e.sz.evalPoints * i
		if err := d.feed(wc, target-d.pos, d.e.sz.durBatch, time.Time{}); err != nil {
			return err
		}
		if err := wc.drainClean(); err != nil {
			return err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		top, err := c.Default().TopK(ctx, d.e.sz.durK)
		cancel()
		if err != nil {
			return err
		}
		d.evals = append(d.evals, evalPoint{pos: d.pos, periods: d.periods, top: entries(top)})
	}
	return nil
}

// feed sends up to limit arrivals of the cyclic replay in frames of up
// to batch keys, stopping early at the deadline if one is set. Batches
// never cross a period boundary; a period frame follows each boundary.
func (d *durable) feed(wc *wireConn, limit, batch int, deadline time.Time) error {
	total := len(d.ks.keys)
	for sent := 0; sent < limit; {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil
		}
		off := d.pos % total
		n := min(batch, limit-sent, d.ks.periodLen-d.pos%d.ks.periodLen)
		if err := wc.send(d.ks.keys[off : off+n]); err != nil {
			return err
		}
		d.pos += n
		sent += n
		if d.pos%d.ks.periodLen == 0 {
			if err := wc.period(); err != nil {
				return err
			}
			d.periods++
		}
	}
	return nil
}

func (d *durable) accuracy() (accuracy, error) {
	return d.ks.scorePoints(d.evals, d.e.sz.durK, nil)
}

func (d *durable) measure(dur time.Duration, tr *tracer) (phase, error) {
	wc, err := dialWire(d.ingest, "", d.e.sz.durWindow, tr)
	if err != nil {
		return phase{}, err
	}
	defer wc.close()
	start := time.Now()
	if err := d.feed(wc, 1<<62, d.e.sz.durBatch, start.Add(dur)); err != nil {
		return phase{}, err
	}
	if err := wc.drain(); err != nil {
		return phase{}, err
	}
	elapsed := time.Since(start)
	lat, acked, frames, failed := wc.snapshot()
	// With window frames in flight, the loop completes window frames per
	// ack latency.
	opsPerS := float64(d.e.sz.durWindow) / (blockQuantile(lat, 0.5) / 1e3)
	fmt.Fprintf(d.e.out, "ingest-durable: %d frames, %d acked arrivals\n", frames+failed, acked)
	return phase{
		opsPerS: opsPerS, ops: int64(frames + failed), opNs: 1e9 / opsPerS, compare: 1e9 / opsPerS, acks: lat,
		attempted: int64(frames + failed), failed: int64(failed),
		extra: map[string]metric{"ingest_mitems_s": {float64(acked) / elapsed.Seconds() / 1e6, "Mitems/s"}},
	}, nil
}

func (d *durable) rssMiB() (float64, error) { return d.n.peakRSSMiB() }

func (d *durable) pids() []int { return []int{d.n.pid()} }

func (d *durable) finish(lv *live, traced bool) error {
	if traced {
		return nil
	}
	rec, err := d.recover()
	if err != nil {
		return err
	}
	lv.extra["recovery_s"] = metric{rec, "s"}
	return nil
}

func (d *durable) close() { d.all.killAll() }

// recover restarts the node gracefully (a snapshot cut) with the WAL
// switched on (inline fsync), logs a fixed tail of arrivals past the cut,
// and then kills and restarts the node several times: each restart loads
// the snapshot and replays the same tail. The checkpoint after every
// recovery must be byte-equal to the one taken before the first kill.
func (d *durable) recover() (float64, error) {
	if err := d.n.stop(); err != nil {
		return 0, err
	}
	d.n.args = append(d.n.args, "-wal-dir", filepath.Join(d.dir, "wal"), "-wal-sync", "0")
	if err := d.n.startReady(); err != nil {
		return 0, err
	}
	wc, err := dialWire(d.ingest, "", d.e.sz.durWindow, nil)
	if err != nil {
		return 0, err
	}
	err = d.feed(wc, d.e.sz.durTail, d.e.sz.durTailBatch, time.Time{})
	if err == nil {
		err = wc.drainClean()
	}
	wc.close()
	if err != nil {
		return 0, err
	}
	want, err := d.checkpoint()
	if err != nil {
		return 0, err
	}
	var secs []float64
	for i := 0; i < d.e.sz.durRecoveries; i++ {
		d.n.kill()
		start := time.Now()
		if err := d.n.startReady(); err != nil {
			return 0, err
		}
		secs = append(secs, sinceSeconds(start))
		got, err := d.checkpoint()
		if err != nil {
			return 0, err
		}
		if err := sameCheckpoint(want, got); err != nil {
			return 0, err
		}
	}
	return median(secs), nil
}

func (d *durable) checkpoint() ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return client.New(d.n.url(), nil).Default().Checkpoint(ctx)
}

// sameCheckpoint is the crash-recovery gate.
func sameCheckpoint(want, got []byte) error {
	if !bytes.Equal(want, got) {
		return gatef("recovered checkpoint differs from the one taken before SIGKILL (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}
