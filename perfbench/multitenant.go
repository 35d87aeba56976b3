package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"sigstream/internal/client"
	"sigstream/internal/gen"
)

// multitenant is the http-multitenant workload: one writer posting small
// text batches round-robin over several tenants and closing their periods
// every few batches, beside one reader asking for a top-k and a point
// query on the same tenants for each period closed. Both loops are
// closed.
type multitenant struct {
	e       *env
	streams []*keyStream
	pos     []int
	periods []uint64
	n       *node
	ns      []string
	evals   [][]evalPoint // per tenant
}

func multitenantStreams(e *env) []*keyStream {
	out := make([]*keyStream, e.sz.mtTenants)
	for i := range out {
		n := e.sz.mtArrivals
		// Few distinct keys and high skew make the path hit-heavy; short
		// periods make it sweep-heavy.
		out[i] = newKeyStream(gen.Config{N: n, M: n / 16, Periods: n / e.sz.mtPeriodLen, Skew: 1.2,
			Head: 50, TailWindowFrac: 0.1, Seed: e.seed*1000 + int64(i), Label: "http-multitenant"})
	}
	return out
}

func newMultitenant(e *env) (liveBench, string) {
	mt := &multitenant{e: e, streams: multitenantStreams(e)}
	for i := range mt.streams {
		mt.ns = append(mt.ns, "bench-"+strconv.Itoa(i))
	}
	return mt, "one text insert of " + strconv.Itoa(e.sz.mtBatch) + " keys"
}

func (mt *multitenant) setup(i int) (float64, error) {
	mt.close()
	n, err := newNode(mt.e.sigserver, filepath.Join(mt.e.work, "multitenant-"+strconv.Itoa(i)+".log"),
		"-shards", "2", "-tenant-mem", strconv.Itoa(mt.e.sz.mtTenantMem))
	if err != nil {
		return 0, err
	}
	mt.n = n
	mt.pos = make([]int, len(mt.streams))
	mt.periods = make([]uint64, len(mt.streams))
	start := time.Now()
	if err := n.startReady(); err != nil {
		return 0, err
	}
	c := client.New(n.url(), &http.Client{Timeout: 30 * time.Second})
	ctx := context.Background()
	mt.evals = make([][]evalPoint, len(mt.streams))
	// Every tenant's stream has the same length; one pass writes one
	// preload batch per tenant.
	ks := mt.streams[0]
	every := len(ks.keys) / mt.e.sz.evalPoints
	for mt.pos[0] < len(ks.keys) {
		for t := range mt.streams {
			if _, _, err := mt.write(ctx, c, t, mt.e.sz.mtPreload, nil, nil); err != nil {
				return 0, err
			}
		}
		if mt.pos[0]%every != 0 {
			continue
		}
		for t := range mt.streams {
			top, err := c.Tenant(mt.ns[t]).TopK(ctx, mt.e.sz.mtK)
			if err != nil {
				return 0, err
			}
			mt.evals[t] = append(mt.evals[t], evalPoint{pos: mt.pos[t], periods: mt.periods[t], top: entries(top)})
		}
	}
	return sinceSeconds(start), nil
}

// write posts the tenant's next batch of up to size keys, then closes
// the period if the batch ended one. It times the insert into ins and
// both requests into all (either may be nil) and returns the number of
// requests made and the keys inserted.
func (mt *multitenant) write(ctx context.Context, c *client.Client, t, size int, ins, all *samples) (int64, int, error) {
	ks := mt.streams[t]
	off := mt.pos[t] % len(ks.keys)
	n := min(size, ks.periodLen-mt.pos[t]%ks.periodLen)
	tn := c.Tenant(mt.ns[t])
	start := time.Now()
	got, err := tn.Insert(ctx, ks.keys[off:off+n]...)
	if err != nil {
		return 1, 0, err
	}
	if d := time.Since(start); ins != nil {
		ins.add(d)
		all.add(d)
	}
	if got != uint64(n) {
		return 1, 0, fmt.Errorf("tenant %s: inserted %d of %d keys", mt.ns[t], got, n)
	}
	mt.pos[t] += n
	if mt.pos[t]%ks.periodLen != 0 {
		return 1, n, nil
	}
	start = time.Now()
	if _, err := tn.EndPeriod(ctx); err != nil {
		// The batch is in; only the boundary is missing, so the stream
		// can no longer match the oracle.
		return 2, n, err
	}
	if all != nil {
		all.add(time.Since(start))
	}
	mt.periods[t]++
	return 2, n, nil
}

func (mt *multitenant) accuracy() (accuracy, error) {
	var accs []accuracy
	for t, ks := range mt.streams {
		a, err := ks.scorePoints(mt.evals[t], mt.e.sz.mtK, nil)
		if err != nil {
			return accuracy{}, fmt.Errorf("tenant %s: %w", mt.ns[t], err)
		}
		accs = append(accs, a)
	}
	return mean(accs), nil
}

func (mt *multitenant) measure(dur time.Duration, tr *tracer) (phase, error) {
	ctx := context.Background()
	deadline := time.Now().Add(dur)
	var inserts, writes, reads samples
	var readOps, readFailed int64
	// The reader asks one top-k and one point query for each period the
	// writer closes, so the mix of reads and writes is the same however
	// fast either loop runs. The writer leaves a token per period and
	// waits when the reader is readAhead tokens behind, so the reader
	// never finishes long after the writer: alone, it would leave a core
	// idle, and an idle core costs the Go runtime CPU time spinning.
	const readAhead = 4
	tokens := make(chan struct{}, readAhead)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rc := client.New(mt.n.url(), &http.Client{Timeout: 30 * time.Second})
		t := 0
		for range tokens {
			tn := rc.Tenant(mt.ns[t])
			t = (t + 1) % len(mt.ns)
			sp := tr.begin("client.top", nil)
			start := time.Now()
			top, err := tn.TopK(ctx, mt.e.sz.mtK)
			reads.add(time.Since(start))
			sp.end()
			readOps++
			if err != nil || len(top) == 0 {
				readFailed++
				continue
			}
			sp = tr.begin("client.query", nil)
			start = time.Now()
			_, err = tn.Query(ctx, top[0].Key)
			reads.add(time.Since(start))
			sp.end()
			readOps++
			// A key evicted between the two calls is a correct "not
			// tracked" answer, not a failure.
			if err != nil && !errors.Is(err, client.ErrNotTracked) {
				readFailed++
			}
		}
	}()
	wc := client.New(mt.n.url(), &http.Client{Timeout: 30 * time.Second})
	start := time.Now()
	var batches, arrivals, writeOps, writeFailed int64
	var werr error
	for t := 0; time.Now().Before(deadline); t = (t + 1) % len(mt.ns) {
		sp := tr.begin("client.insert", nil)
		ops, n, err := mt.write(ctx, wc, t, mt.e.sz.mtBatch, &inserts, &writes)
		sp.end()
		batches++
		writeOps += ops
		arrivals += int64(n)
		if err != nil {
			writeFailed++
			werr = err
		}
		if ops == 2 {
			tokens <- struct{}{}
		}
	}
	elapsed := time.Since(start)
	close(tokens)
	wg.Wait()
	ins := inserts.ms()
	if werr != nil {
		fmt.Fprintf(mt.e.out, "http-multitenant: write failed: %v\n", werr)
	}
	fmt.Fprintf(mt.e.out, "http-multitenant: %d writes, %d reads, %d failed\n",
		writeOps, readOps, writeFailed+readFailed)
	rd := reads.inOrder()
	return phase{
		opsPerS:   1e3 / blockQuantile(inserts.inOrder(), 0.5),
		ops:       batches,
		opNs:      sum(ins) / float64(len(ins)) * 1e6,
		compare:   quantile(ins, 0.5),
		acks:      writes.inOrder(),
		attempted: writeOps + readOps,
		failed:    writeFailed + readFailed,
		extra: map[string]metric{
			"ingest_mitems_s": {float64(arrivals) / elapsed.Seconds() / 1e6, "Mitems/s"},
			"query_p50_ms":    {blockQuantile(rd, 0.5), "ms"},
			"query_p99_ms":    {blockQuantile(rd, 0.99), "ms"},
		},
	}, nil
}

func (mt *multitenant) rssMiB() (float64, error) { return mt.n.peakRSSMiB() }

func (mt *multitenant) pids() []int { return []int{mt.n.pid()} }

func (mt *multitenant) finish(*live, bool) error { return nil }

func (mt *multitenant) close() {
	if mt.n != nil {
		mt.n.kill()
	}
}
