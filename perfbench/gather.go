package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"sigstream"
	"sigstream/internal/client"
	"sigstream/internal/cluster"
	"sigstream/internal/coord"
	"sigstream/internal/gen"
	"sigstream/internal/stream"
)

// gatherBench is the cluster-gather workload: three sigserver nodes
// hosting P partitions at replication R, a coord.Server in this process
// gathering back to back, one open-loop producer trickling replica
// fan-out inserts, and one reader asking the coordinator's top-k a few
// times per round.
type gatherBench struct {
	e        *env
	ks       *keyStream
	byPart   [][]string // every key of the stream, split by partition, in order
	partOf   []int      // partition of each stream position
	trickle  []int      // next trickle offset per partition
	all      nodes      // every node started, for close
	nodes    []*node
	sites    []string
	topo     *cluster.Topology
	co       *coord.Server
	tt       *timingTransport
	coordURL string
	coordSrv *http.Server
	acked    uint64        // arrivals acknowledged by every replica
	evals    [][]evalPoint // per partition, read from its first replica
	late     []float64     // open-loop producer lateness over every phase, ms
	fetchMiB float64       // checkpoint MiB fetched per round in the traced phase
}

func gatherStream(e *env) *keyStream {
	n := e.sz.clArrivals
	return newKeyStream(gen.Config{N: n, M: n / 8, Periods: e.sz.clPeriods, Skew: 1.1,
		Head: 1000, TailWindowFrac: 0.25, Seed: e.seed, Label: "cluster-gather"})
}

func newGather(e *env) (liveBench, string) {
	return &gatherBench{e: e, ks: gatherStream(e)}, "one gather round"
}

// setup starts the nodes, preloads every partition on each of its
// replicas, and runs the first gather round; it ends at the first
// committed cluster view.
func (g *gatherBench) setup(i int) (float64, error) {
	g.closeCoord()
	for _, n := range g.nodes {
		n.kill()
	}
	g.nodes, g.sites = nil, nil
	for j := 0; j < g.e.sz.clNodes; j++ {
		n, err := newNode(g.e.sigserver, filepath.Join(g.e.work, fmt.Sprintf("gather-%d-node%d.log", i, j)),
			"-shards", "2", "-tenant-mem", strconv.Itoa(g.e.sz.clTenantMem))
		if err != nil {
			return 0, err
		}
		g.nodes = append(g.nodes, g.all.add(n))
		g.sites = append(g.sites, n.url())
	}
	topo, err := cluster.NewTopology(g.sites, g.e.sz.clParts, g.e.sz.clReplicas)
	if err != nil {
		return 0, err
	}
	g.topo = topo
	g.splitByPartition()
	g.acked = 0

	start := time.Now()
	for _, n := range g.nodes {
		if err := n.start(); err != nil {
			return 0, err
		}
	}
	for _, n := range g.nodes {
		if err := n.waitReady(60 * time.Second); err != nil {
			return 0, err
		}
	}
	if err := g.preload(); err != nil {
		return 0, err
	}
	if err := g.startCoord(); err != nil {
		return 0, err
	}
	if rep := g.co.GatherNow(context.Background()); !rep.Committed {
		return 0, fmt.Errorf("first gather round did not commit: %s", rep.Reason)
	}
	return sinceSeconds(start), nil
}

func (g *gatherBench) splitByPartition() {
	g.byPart = make([][]string, g.topo.Partitions())
	g.partOf = make([]int, len(g.ks.keys))
	for j, k := range g.ks.keys {
		p := g.topo.PartitionKey(k)
		g.byPart[p] = append(g.byPart[p], k)
		g.partOf[j] = p
	}
	g.trickle = make([]int, g.topo.Partitions())
}

// preload sends the stream period by period: each partition's share of
// a period goes to every replica, then every replica of every partition
// closes the period, so replicas stay identical.
func (g *gatherBench) preload() error {
	ctx := context.Background()
	clients := make(map[string]*client.Client, len(g.sites))
	for _, s := range g.sites {
		clients[s] = client.New(s, &http.Client{Timeout: 60 * time.Second})
	}
	per := g.ks.periodLen
	g.evals = make([][]evalPoint, g.topo.Partitions())
	every := len(g.ks.keys) / g.e.sz.evalPoints
	for off := 0; off < len(g.ks.keys); off += per {
		parts := make([][]string, g.topo.Partitions())
		for j := off; j < min(off+per, len(g.ks.keys)); j++ {
			parts[g.partOf[j]] = append(parts[g.partOf[j]], g.ks.keys[j])
		}
		for p, keys := range parts {
			ns := cluster.PartitionNamespace(p)
			for _, site := range g.topo.ReplicaSites(p) {
				for lo := 0; lo < len(keys); lo += g.e.sz.clPreload {
					batch := keys[lo:min(lo+g.e.sz.clPreload, len(keys))]
					if _, err := clients[site].Tenant(ns).Insert(ctx, batch...); err != nil {
						return fmt.Errorf("preload %s on %s: %w", ns, site, err)
					}
				}
			}
		}
		for p := range parts {
			ns := cluster.PartitionNamespace(p)
			for _, site := range g.topo.ReplicaSites(p) {
				if _, err := clients[site].Tenant(ns).EndPeriod(ctx); err != nil {
					return fmt.Errorf("preload period %s on %s: %w", ns, site, err)
				}
			}
		}
		if end := off + per; end%every == 0 {
			for p := range parts {
				site := g.topo.ReplicaSites(p)[0]
				top, err := clients[site].Tenant(cluster.PartitionNamespace(p)).TopK(ctx, g.e.sz.clK)
				if err != nil {
					return err
				}
				g.evals[p] = append(g.evals[p], evalPoint{pos: end, periods: uint64(end / per), top: entries(top)})
			}
		}
	}
	g.acked = uint64(len(g.ks.keys))
	return nil
}

// startCoord builds the coordinator over the nodes and serves its API on
// a loopback port in this process. Its HTTP client goes through a timing
// transport, which records spans only while a tracer is set.
func (g *gatherBench) startCoord() error {
	g.tt = &timingTransport{base: http.DefaultTransport}
	co, err := coord.New(coord.Config{Sites: g.sites, Partitions: g.e.sz.clParts,
		Replicas: g.e.sz.clReplicas, FetchTimeout: 30 * time.Second,
		HTTPClient: &http.Client{Transport: g.tt, Timeout: 30 * time.Second}})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	g.co = co
	g.coordURL = "http://" + ln.Addr().String()
	srv := &http.Server{Handler: co}
	g.coordSrv = srv
	go func() { _ = srv.Serve(ln) }()
	return nil
}

func (g *gatherBench) closeCoord() {
	if g.coordSrv != nil {
		_ = g.coordSrv.Close()
		g.coordSrv = nil
	}
	if g.co != nil {
		_ = g.co.Close()
		g.co = nil
	}
}

func (g *gatherBench) measure(dur time.Duration, tr *tracer) (phase, error) {
	ctx := context.Background()
	g.tt.tr = tr
	defer func() { g.tt.tr = nil }()
	g.tt.fetchBytes.Store(0)
	start := time.Now()
	deadline := start.Add(dur)
	var rounds, reads, acks, late samples
	var roundOps, roundFailed, readOps, readFailed, writeOps, writeFailed int64
	var wg sync.WaitGroup

	// The reader asks the coordinator's top-k clReadsPerRound times for
	// each committed or failed round, so the mix is the same however fast
	// either loop runs; tokens never hold the gather loop up.
	tokens := make(chan struct{}, 1<<20)
	wg.Add(1)
	go func() { // reader: closed loop, paced by rounds
		defer wg.Done()
		c := client.New(g.coordURL, &http.Client{Timeout: 30 * time.Second})
		for range tokens {
			t0 := time.Now()
			v, err := c.ClusterTopK(ctx, g.e.sz.clK)
			reads.add(time.Since(t0))
			readOps++
			if err != nil || len(v.Entries) == 0 {
				readFailed++
			}
		}
	}()

	wg.Add(1)
	go func() { // producer: open loop, each insert timed from when it was due
		defer wg.Done()
		interval := time.Duration(float64(time.Second) / g.e.sz.clTrickleHz)
		clients := make(map[string]*client.Client, len(g.sites))
		for _, s := range g.sites {
			clients[s] = client.New(s, &http.Client{Timeout: 30 * time.Second})
		}
		for tick := 0; ; tick++ {
			due := start.Add(time.Duration(tick) * interval)
			if !due.Before(deadline) {
				return
			}
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			late.add(max(0, time.Since(due)))
			p := tick % g.topo.Partitions()
			keys := g.nextTrickle(p)
			ok := true
			for _, site := range g.topo.ReplicaSites(p) {
				_, err := clients[site].Tenant(cluster.PartitionNamespace(p)).Insert(ctx, keys...)
				acks.add(time.Since(due))
				writeOps++
				if err != nil {
					writeFailed++
					ok = false
				}
			}
			if ok {
				g.acked += uint64(len(keys))
			}
		}
	}()

	for time.Now().Before(deadline) {
		sp := tr.begin("coord.gather", nil)
		if sp != nil {
			g.tt.parent.Store(sp.id)
		}
		t0 := time.Now()
		rep := g.co.GatherNow(ctx)
		rounds.add(time.Since(t0))
		sp.end()
		roundOps++
		if !rep.Committed {
			roundFailed++
		}
		for range g.e.sz.clReadsPerRound {
			tokens <- struct{}{}
		}
	}
	close(tokens)
	wg.Wait()
	rs, rd := rounds.inOrder(), reads.inOrder()
	g.late = append(g.late, late.inOrder()...)
	g.fetchMiB = float64(g.tt.fetchBytes.Load()) / float64(len(rs)) / (1 << 20)
	fmt.Fprintf(g.e.out, "cluster-gather: %d rounds, %d reads, %d acks\n", len(rs), len(rd), acks.count())
	return phase{
		opsPerS:   1e3 / blockQuantile(rs, 0.5),
		ops:       roundOps,
		opNs:      median(rs) * 1e6,
		compare:   median(rs),
		acks:      acks.inOrder(),
		attempted: roundOps + readOps + writeOps,
		failed:    roundFailed + readFailed + writeFailed,
		extra: map[string]metric{
			"gather_round_p50_ms": {blockQuantile(rs, 0.5), "ms"},
			"gather_round_p90_ms": {blockQuantile(rs, 0.9), "ms"},
			"query_p50_ms":        {blockQuantile(rd, 0.5), "ms"},
			"query_p99_ms":        {blockQuantile(rd, 0.99), "ms"},
		},
	}, nil
}

func (g *gatherBench) pids() []int {
	out := make([]int, len(g.nodes))
	for i, n := range g.nodes {
		out[i] = n.pid()
	}
	return out
}

func (g *gatherBench) rssMiB() (float64, error) {
	var rss float64
	for _, n := range g.nodes {
		r, err := n.peakRSSMiB()
		if err != nil {
			return 0, err
		}
		rss += r
	}
	return rss, nil
}

// finish checks the final view and reports the open-loop producer's
// lateness, which says whether the ack latencies are valid.
func (g *gatherBench) finish(lv *live, traced bool) error {
	if err := g.checkView(); err != nil {
		return err
	}
	lv.genLateMs = quantile(sorted(g.late), 0.99)
	if !traced {
		lv.extra["client.gen_late_ms_p99"] = metric{lv.genLateMs, "ms"}
		return nil
	}
	lv.fetchMiBPerRound = g.fetchMiB
	var err error
	lv.fetchesPerRound, err = fetchesPerRound(g.co)
	return err
}

func (g *gatherBench) close() {
	g.closeCoord()
	g.all.killAll()
}

// accuracy scores each partition's tracker, read from its first
// replica during preload, against the oracle over that partition's keys,
// and averages over partitions. The view-equality gate ties the view to
// the same partition images.
func (g *gatherBench) accuracy() (accuracy, error) {
	var accs []accuracy
	for p := range g.evals {
		a, err := g.ks.scorePoints(g.evals[p], g.e.sz.clK, func(j int) bool { return g.partOf[j] == p })
		if err != nil {
			return accuracy{}, fmt.Errorf("partition %d: %w", p, err)
		}
		accs = append(accs, a)
	}
	return mean(accs), nil
}

// nextTrickle returns the partition's next few keys, cycling through
// its share of the stream.
func (g *gatherBench) nextTrickle(p int) []string {
	keys := g.byPart[p]
	out := make([]string, g.e.sz.clTrickleKey)
	for i := range out {
		out[i] = keys[g.trickle[p]%len(keys)]
		g.trickle[p]++
	}
	return out
}

// checkView is the cluster gate: after one more round, the coordinator's
// view must equal MergeShardedCheckpoints over one replica image per
// partition fetched directly, and must hold every acknowledged arrival
// exactly once — replication never inflates counts.
func (g *gatherBench) checkView() error {
	ctx := context.Background()
	if rep := g.co.GatherNow(ctx); !rep.Committed {
		return gatef("final gather round did not commit: %s", rep.Reason)
	}
	var images [][]byte
	for p := 0; p < g.topo.Partitions(); p++ {
		site := g.topo.ReplicaSites(p)[0]
		img, err := client.New(site, &http.Client{Timeout: 30 * time.Second}).
			Tenant(cluster.PartitionNamespace(p)).Checkpoint(ctx)
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
			continue
		}
		if err != nil {
			return err
		}
		images = append(images, img)
	}
	view, _, ok := g.co.TopKView(1 << 20)
	if !ok {
		return gatef("no committed cluster view")
	}
	return sameView(images, viewEntries(view), g.acked)
}

// sameView compares the coordinator's view with the merge of one image
// per partition, after checking that those images hold every
// acknowledged arrival exactly once.
func sameView(images [][]byte, view []stream.Entry, acked uint64) error {
	var held uint64
	for _, img := range images {
		t := new(sigstream.Sharded)
		if err := t.UnmarshalBinary(img); err != nil {
			return err
		}
		held += t.Stats().Arrivals
	}
	if held != acked {
		return gatef("partitions hold %d arrivals, %d were acknowledged", held, acked)
	}
	direct, err := sigstream.MergeShardedCheckpoints(images...)
	if err != nil {
		return err
	}
	want := direct.TopK(1 << 20)
	if len(want) != len(view) {
		return gatef("cluster view has %d entries, direct merge %d", len(view), len(want))
	}
	for i := range want {
		w, v := want[i], view[i]
		if w.Item != v.Item || w.Frequency != v.Frequency || w.Persistency != v.Persistency {
			return gatef("cluster view entry %d is %+v, direct merge %+v", i, v, w)
		}
	}
	return nil
}
