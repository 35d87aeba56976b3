package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"sigstream"
	"sigstream/internal/client"
	"sigstream/internal/cluster"
	"sigstream/internal/coord"
	"sigstream/internal/ingest"
	"sigstream/internal/server"
	"sigstream/internal/tenant"
	"sigstream/internal/wal"
)

// layerResult is the traced run's in-process part: per-layer metrics,
// and the layers' self time per operation for reconciliation.
type layerResult struct {
	metrics     map[string]metric
	selfNsPerOp float64
	selfParts   []selfPart
}

// selfPart is one layer's self time per end-to-end operation.
type selfPart struct {
	name string
	ns   float64
}

// replayInput is the slice of a workload's inputs the layers replay: its
// batches in order, where periods close, and the tracker geometry it runs.
type replayInput struct {
	batches   [][]string
	periodEnd []bool // a period closes after batch i
	mem       int
	k         int
	arrivals  int
}

func replayInputFor(e *env, name string) replayInput {
	var ks *keyStream
	var in replayInput
	batch := 0
	switch name {
	case "ingest-durable":
		ks, batch = durableStream(e), e.sz.durBatch
		in.mem, in.k = e.sz.durMem, e.sz.durK
	case "http-multitenant":
		ks, batch = multitenantStreams(e)[0], e.sz.mtBatch
		in.mem, in.k = e.sz.mtTenantMem, e.sz.mtK
	default:
		ks, batch = gatherStream(e), e.sz.clPreload
		in.mem, in.k = e.sz.clTenantMem, e.sz.clK
	}
	// One pass over the stream, capped at rpBatches batches.
	for pos := 0; pos < len(ks.keys) && len(in.batches) < e.sz.rpBatches; {
		off := pos % len(ks.keys)
		n := min(batch, ks.periodLen-pos%ks.periodLen)
		in.batches = append(in.batches, ks.keys[off:off+n])
		pos += n
		in.arrivals += n
		in.periodEnd = append(in.periodEnd, pos%ks.periodLen == 0)
	}
	return in
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// replayLayers replays the workload's inputs in process through each
// layer's public entry points, one span per call, and derives the
// per-layer metrics. lv is the live traced run of the same workload.
func replayLayers(e *env, name string, lv *live) (*layerResult, error) {
	in := replayInputFor(e, name)
	tr := newTracer()
	res := &layerResult{metrics: map[string]metric{}}
	m := res.metrics
	arr := float64(in.arrivals)
	dir := filepath.Join(e.work, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	// ingest: frame verification, envelope parse and zero-copy decode.
	decoded, wireBytes, err := replayDecode(tr, in)
	if err != nil {
		return nil, err
	}
	m["ingest.wire_bytes_per_arrival"] = metric{float64(wireBytes) / arr, "B"}

	// tenant: IngestWire on a registry configured like the workloads'
	// servers, and the text Ingest path on a second tenant.
	reg, tn, err := replayTenant(tr, in, decoded, dir, m)
	if err != nil {
		return nil, err
	}

	// wal: a standalone log with inline fsync, appended then replayed.
	if err := replayWAL(tr, in, decoded, e.sz.rpWALBatches, filepath.Join(dir, "wal"), m); err != nil {
		return nil, err
	}

	// sigstream and ltc: a standalone sharded tracker.
	if err := replaySharded(e, tr, in, decoded, m); err != nil {
		return nil, err
	}

	// snapshot: the tenant's cut image, saved then revived.
	if err := replaySnapshot(tr, in, reg, tn, dir, m); err != nil {
		return nil, err
	}

	// server: Server.ServeHTTP on the same batches.
	if err := replayServer(e, tr, in, m); err != nil {
		return nil, err
	}

	// cluster and coord: in-process nodes gathered by a coord.Server.
	late, err := replayCluster(e, tr, in, m)
	if err != nil {
		return nil, err
	}

	lt := aggregate(tr.all())
	if err := tr.writeJSONL(filepath.Join(filepath.Dir(e.work), "spans-replay-"+name+".jsonl")); err != nil {
		return nil, err
	}
	perArrival := func(span string) float64 { return sum(lt.self[span]) / arr }
	usP := func(span string, q float64) float64 { return quantile(sorted(lt.dur[span]), q) / 1e3 }
	msP := func(span string, q float64) float64 { return quantile(sorted(lt.dur[span]), q) / 1e6 }

	m["ingest.decode_ns_per_arrival"] = metric{perArrival("ingest.decode"), "ns"}
	m["server.insert_us_p50"] = metric{usP("server.insert", 0.5), "us"}
	m["server.insert_us_p99"] = metric{usP("server.insert", 0.99), "us"}
	m["server.top_us_p50"] = metric{usP("server.top", 0.5), "us"}
	m["server.checkpoint_ms_p50"] = metric{msP("server.checkpoint", 0.5), "ms"}
	m["tenant.ingest_wire_us_p50"] = metric{usP("tenant.ingest_wire", 0.5), "us"}
	m["tenant.ingest_wire_us_p99"] = metric{usP("tenant.ingest_wire", 0.99), "us"}
	m["tenant.ingest_text_us_p50"] = metric{usP("tenant.ingest_text", 0.5), "us"}
	m["tenant.end_period_us_p50"] = metric{usP("tenant.end_period", 0.5), "us"}
	m["tenant.self_ns_per_arrival"] = metric{perArrival("tenant.ingest_wire") - perArrival("sigstream.insert"), "ns"}
	m["wal.append_us_p50"] = metric{usP("wal.append", 0.5), "us"}
	m["wal.append_us_p99"] = metric{usP("wal.append", 0.99), "us"}
	m["snapshot.load_ms"] = metric{msP("snapshot.load", 0.5), "ms"}
	m["sigstream.insert_ns_per_arrival"] = metric{perArrival("sigstream.insert"), "ns"}
	m["sigstream.end_period_us_p50"] = metric{usP("sigstream.end_period", 0.5), "us"}
	m["sigstream.topk_us_p50"] = metric{usP("sigstream.topk", 0.5), "us"}
	m["sigstream.encode_ms_p50"] = metric{msP("sigstream.encode", 0.5), "ms"}
	m["sigstream.merge_ms_p50"] = metric{msP("sigstream.merge", 0.5), "ms"}
	m["coord.topk_us_p50"] = metric{usP("coord.topk", 0.5), "us"}
	// On cluster-gather the gather phases come from the live traced half,
	// where the nodes are separate processes; elsewhere from the replay.
	// The same holds for the open-loop producer's lateness.
	gather := lt
	if name == "cluster-gather" {
		gather = aggregate(lv.spans.all())
		m["cluster.fetched_mib_per_round"] = metric{lv.fetchMiBPerRound, "MiB"}
		m["cluster.fetches_per_round"] = metric{lv.fetchesPerRound, "count"}
		late = lv.genLateMs
	}
	m["client.gen_late_ms_p99"] = metric{late, "ms"}
	gatherSpanMetrics(m, gather)
	rounds := float64(len(gather.dur["coord.gather"]))

	// Reconciliation: the layers on one operation's blocking path.
	batches := float64(len(in.batches))
	perBatch := func(span string) float64 { return sum(lt.self[span]) / batches }
	perRound := func(span string) float64 { return sum(gather.dur[span]) / rounds }
	switch name {
	case "ingest-durable":
		res.selfParts = []selfPart{
			{"ingest.decode", perBatch("ingest.decode")},
			{"tenant.self", perBatch("tenant.ingest_wire") - perBatch("sigstream.insert")},
			{"sigstream.insert", perBatch("sigstream.insert")},
		}
	case "http-multitenant":
		res.selfParts = []selfPart{
			{"server.self", perBatch("server.insert") - perBatch("tenant.ingest_wire")},
			{"tenant.self", perBatch("tenant.ingest_wire") - perBatch("sigstream.insert")},
			{"sigstream.insert", perBatch("sigstream.insert")},
		}
	default:
		res.selfParts = []selfPart{
			{"cluster.fetch", perRound("cluster.fetch")},
			{"cluster.other_requests", perRound("cluster.other")},
			{"sigstream.decode", sum(lt.dur["sigstream.decode"]) / float64(e.sz.rpEncodes)},
			{"sigstream.merge", sum(lt.dur["sigstream.merge"]) / float64(e.sz.rpEncodes)},
		}
	}
	for _, p := range res.selfParts {
		res.selfNsPerOp += p.ns
	}
	m["trace.overhead_share"] = metric{lv.overhead, "share"}
	m["trace.unattributed_share"] = metric{1 - res.selfNsPerOp/lv.opNs, "share"}
	return res, nil
}

// decodedBatch is one batch as the ingest decoder hands it on.
type decodedBatch struct {
	keys  [][]byte
	items []sigstream.Item
}

func replayDecode(tr *tracer, in replayInput) ([]decodedBatch, int, error) {
	frames := make([][]byte, len(in.batches))
	wireBytes := 0
	for i, keys := range in.batches {
		payload, err := ingest.AppendBatchPayload(nil, uint32(i), "", keys, nil)
		if err != nil {
			return nil, 0, err
		}
		frames[i] = ingest.AppendFrame(nil, payload)
		wireBytes += len(frames[i])
	}
	out := make([]decodedBatch, len(frames))
	var sc ingest.Scratch
	for i, f := range frames {
		sp := tr.begin("ingest.decode", nil)
		p, err := ingest.VerifyFrame(f, ingest.DefaultMaxFrameBytes)
		if err != nil {
			return nil, 0, err
		}
		h, records, arrivals, err := ingest.ParsePayload(p)
		if err != nil {
			return nil, 0, err
		}
		sc.Grow(records, arrivals)
		ingest.DecodeBatch(p, h, records, &sc)
		sp.end()
		// Keys alias the frame, which outlives the replay; items are copied
		// out of the reused scratch.
		out[i] = decodedBatch{keys: append([][]byte(nil), sc.Keys...),
			items: append([]sigstream.Item(nil), sc.Items...)}
	}
	return out, wireBytes, nil
}

// replayRegistry is configured like the workloads' measured phases:
// snapshots, no WAL.
func replayRegistry(in replayInput, dir string) *tenant.Registry {
	return tenant.NewRegistry(tenant.Config{Tracker: sigstream.Config{MemoryBytes: in.mem}, Shards: 2,
		Dir: filepath.Join(dir, "snap"), Logger: quiet})
}

// replayTenant returns the registry open; replaySnapshot closes it.
func replayTenant(tr *tracer, in replayInput, decoded []decodedBatch, dir string, m map[string]metric) (*tenant.Registry, *tenant.Tenant, error) {
	reg := replayRegistry(in, dir)
	tn, text, err := twoTenants(reg)
	if err != nil {
		_ = reg.Close()
		return nil, nil, err
	}
	if err := feedTenants(tr, in, decoded, tn, text, m); err != nil {
		_ = reg.Close()
		return nil, nil, err
	}
	return reg, tn, nil
}

func twoTenants(reg *tenant.Registry) (*tenant.Tenant, *tenant.Tenant, error) {
	tn, err := reg.GetOrCreate("replay")
	if err != nil {
		return nil, nil, err
	}
	text, err := reg.GetOrCreate("replay-text")
	return tn, text, err
}

func feedTenants(tr *tracer, in replayInput, decoded []decodedBatch, tn, text *tenant.Tenant, m map[string]metric) error {
	for i, b := range decoded {
		sp := tr.begin("tenant.ingest_wire", nil)
		n, err := tn.IngestWire(tenant.WireBatch{Keys: b.keys, Items: b.items})
		sp.end()
		if err != nil || n != len(b.items) {
			return fmt.Errorf("IngestWire: %d of %d arrivals: %v", n, len(b.items), err)
		}
		sp = tr.begin("tenant.ingest_text", nil)
		n, err = text.Ingest(in.batches[i])
		sp.end()
		if err != nil || n != len(b.items) {
			return fmt.Errorf("Ingest: %d of %d arrivals: %v", n, len(b.items), err)
		}
		if in.periodEnd[i] {
			sp = tr.begin("tenant.end_period", nil)
			_, err := tn.EndPeriod()
			sp.end()
			if err != nil {
				return err
			}
			if _, err := text.EndPeriod(); err != nil {
				return err
			}
		}
	}
	st, err := tn.Stats()
	if err != nil {
		return err
	}
	if st.Arrivals != uint64(in.arrivals) {
		return gatef("tenant holds %d arrivals, replayed %d", st.Arrivals, in.arrivals)
	}
	ts := st.Tracker
	arr := float64(ts.Arrivals)
	m["ltc.hits_per_arrival"] = metric{float64(ts.Hits) / arr, "count"}
	m["ltc.admissions_per_arrival"] = metric{float64(ts.Admissions) / arr, "count"}
	m["ltc.decrements_per_arrival"] = metric{float64(ts.Decrements) / arr, "count"}
	m["ltc.expulsions_per_arrival"] = metric{float64(ts.Expulsions) / arr, "count"}
	m["ltc.cells_swept_per_arrival"] = metric{float64(ts.CellsSwept) / arr, "count"}
	m["ltc.occupancy_share"] = metric{float64(ts.OccupiedCells) / float64(ts.Cells), "share"}
	return nil
}

// replayWAL appends at most limit batches: every append fsyncs the
// checkout's disk, so the layer is timed on a bounded sample.
func replayWAL(tr *tracer, in replayInput, decoded []decodedBatch, limit int, dir string, m map[string]metric) error {
	l, err := wal.Open(wal.Options{Dir: dir, Logger: quiet})
	if err != nil {
		return err
	}
	arrivals := 0
	for i, b := range decoded[:min(limit, len(decoded))] {
		sp := tr.begin("wal.append", nil)
		err := l.Append(wal.EncodeBatchRecords(b.keys, nil))
		sp.end()
		if err != nil {
			_ = l.Close()
			return err
		}
		arrivals += len(b.items)
		if in.periodEnd[i] {
			if err := l.Append(wal.EncodePeriod()); err != nil {
				_ = l.Close()
				return err
			}
		}
	}
	st := l.Stats()
	if err := l.Close(); err != nil {
		return err
	}
	m["wal.bytes_per_arrival"] = metric{float64(st.AppendedBytes) / float64(arrivals), "B"}
	m["wal.syncs_per_append"] = metric{float64(st.Syncs) / float64(st.Appends), "count"}

	l, err = wal.Open(wal.Options{Dir: dir, Logger: quiet})
	if err != nil {
		return err
	}
	defer l.Close()
	keys := 0
	sp := tr.begin("wal.replay", nil)
	_, err = l.Replay(0, func(r wal.Record) error {
		keys += len(r.Keys)
		return nil
	})
	elapsed := sp.end()
	if err != nil {
		return err
	}
	if keys != arrivals {
		return gatef("WAL replayed %d arrivals, appended %d", keys, arrivals)
	}
	m["wal.replay_mitems_s"] = metric{float64(arrivals) / elapsed.Seconds() / 1e6, "Mitems/s"}
	return nil
}

func replaySharded(e *env, tr *tracer, in replayInput, decoded []decodedBatch, m map[string]metric) error {
	sh := sigstream.NewSharded(sigstream.Config{MemoryBytes: in.mem}, 2)
	for i, b := range decoded {
		sp := tr.begin("sigstream.insert", nil)
		sh.InsertBatch(b.items)
		sp.end()
		if in.periodEnd[i] {
			sp = tr.begin("sigstream.end_period", nil)
			sh.EndPeriod()
			sp.end()
		}
	}
	for i := 0; i < e.sz.rpTopK; i++ {
		sp := tr.begin("sigstream.topk", nil)
		top := sh.TopK(in.k)
		sp.end()
		if len(top) == 0 {
			return gatef("TopK returned nothing")
		}
	}
	var buf bytes.Buffer
	for i := 0; i < e.sz.rpEncodes; i++ {
		buf.Reset()
		sp := tr.begin("sigstream.encode", nil)
		err := sh.EncodeTo(&buf)
		sp.end()
		if err != nil {
			return err
		}
	}
	return nil
}

func replaySnapshot(tr *tracer, in replayInput, first *tenant.Registry, tn *tenant.Tenant, dir string, m map[string]metric) error {
	name, err := tn.Save()
	if err != nil {
		_ = first.Close()
		return err
	}
	fi, err := os.Stat(filepath.Join(dir, "snap", tn.Namespace(), name))
	if err != nil {
		return err
	}
	m["snapshot.bytes"] = metric{float64(fi.Size()), "B"}
	want, err := tn.CheckpointImage()
	if cerr := first.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	// A second registry over the same directories revives the tenant
	// from its cut image on first touch.
	reg := replayRegistry(in, dir)
	defer reg.Close()
	if err := reg.AttachDir(filepath.Join(dir, "snap")); err != nil {
		return err
	}
	revived, err := reg.Get("replay")
	if err != nil {
		return err
	}
	sp := tr.begin("snapshot.load", nil)
	_, err = revived.Stats()
	sp.end()
	if err != nil {
		return err
	}
	got, err := revived.CheckpointImage()
	if err != nil {
		return err
	}
	return sameCheckpoint(want, got)
}

func replayServer(e *env, tr *tracer, in replayInput, m map[string]metric) error {
	srv := server.New(server.Config{TenantMemoryBytes: in.mem, Shards: 2, Logger: quiet})
	defer srv.Close()
	do := func(span, method, target, body string) (*httptest.ResponseRecorder, error) {
		req := httptest.NewRequest(method, target, strings.NewReader(body))
		rec := httptest.NewRecorder()
		sp := tr.begin(span, nil)
		srv.ServeHTTP(rec, req)
		sp.end()
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("%s %s: status %d: %s", method, target, rec.Code, rec.Body.String())
		}
		return rec, nil
	}
	for i, keys := range in.batches {
		if _, err := do("server.insert", http.MethodPost, "/v1/t/replay/insert", strings.Join(keys, "\n")); err != nil {
			return err
		}
		if in.periodEnd[i] {
			if _, err := do("server.period", http.MethodPost, "/v1/t/replay/period", ""); err != nil {
				return err
			}
		}
	}
	for i := 0; i < e.sz.rpTopK; i++ {
		if _, err := do("server.top", http.MethodGet, "/v1/t/replay/top?k="+strconv.Itoa(in.k), ""); err != nil {
			return err
		}
	}
	for i := 0; i < e.sz.rpEncodes; i++ {
		if _, err := do("server.checkpoint", http.MethodGet, "/v1/t/replay/checkpoint", ""); err != nil {
			return err
		}
	}
	return nil
}

// replayCluster serves three in-process server.Server nodes on loopback,
// loads the replay input into P partitions at R=2, and gathers them with
// a coord.Server whose HTTP client records a span per request. An
// open-loop producer trickles fan-out inserts during the rounds.
func replayCluster(e *env, tr *tracer, in replayInput, m map[string]metric) (float64, error) {
	var sites []string
	var servers []*http.Server
	nodeOf := map[string]*server.Server{}
	defer func() {
		for _, s := range servers {
			_ = s.Close()
		}
		for _, n := range nodeOf {
			_ = n.Close()
		}
	}()
	for i := 0; i < e.sz.clNodes; i++ {
		n := server.New(server.Config{TenantMemoryBytes: in.mem, Shards: 2, Logger: quiet})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = n.Close()
			return 0, err
		}
		hs := &http.Server{Handler: n}
		go func() { _ = hs.Serve(ln) }()
		site := "http://" + ln.Addr().String()
		sites = append(sites, site)
		servers = append(servers, hs)
		nodeOf[site] = n
	}
	topo, err := cluster.NewTopology(sites, e.sz.clParts, e.sz.clReplicas)
	if err != nil {
		return 0, err
	}
	for i, keys := range in.batches {
		parts := map[int][]string{}
		for _, k := range keys {
			p := topo.PartitionKey(k)
			parts[p] = append(parts[p], k)
		}
		for p, ks := range parts {
			for _, site := range topo.ReplicaSites(p) {
				tn, err := nodeOf[site].Tenants().GetOrCreate(cluster.PartitionNamespace(p))
				if err != nil {
					return 0, err
				}
				if _, err := tn.Ingest(ks); err != nil {
					return 0, err
				}
			}
		}
		if in.periodEnd[i] {
			for p := 0; p < topo.Partitions(); p++ {
				for _, site := range topo.ReplicaSites(p) {
					tn, err := nodeOf[site].Tenants().GetOrCreate(cluster.PartitionNamespace(p))
					if err != nil {
						return 0, err
					}
					if _, err := tn.EndPeriod(); err != nil {
						return 0, err
					}
				}
			}
		}
	}

	tt := &timingTransport{base: http.DefaultTransport, tr: tr}
	co, err := coord.New(coord.Config{Sites: sites, Partitions: e.sz.clParts, Replicas: e.sz.clReplicas,
		FetchTimeout: 30 * time.Second, HTTPClient: &http.Client{Transport: tt, Timeout: 30 * time.Second}})
	if err != nil {
		return 0, err
	}
	defer co.Close()

	// The producer runs for as long as the rounds do.
	var late samples
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := map[string]*client.Client{}
		for _, s := range sites {
			c[s] = client.New(s, &http.Client{Timeout: 30 * time.Second})
		}
		interval := time.Duration(float64(time.Second) / e.sz.clTrickleHz)
		start := time.Now()
		for tick := 0; ; tick++ {
			due := start.Add(time.Duration(tick) * interval)
			select {
			case <-stop:
				return
			case <-time.After(time.Until(due)):
			}
			late.add(max(0, time.Since(due)))
			keys := in.batches[tick%len(in.batches)]
			p := topo.PartitionKey(keys[0])
			for _, site := range topo.ReplicaSites(p) {
				_, _ = c[site].Tenant(cluster.PartitionNamespace(p)).Insert(context.Background(), keys[:1]...)
			}
		}
	}()
	for i := 0; i < e.sz.rpRounds; i++ {
		sp := tr.begin("coord.gather", nil)
		tt.parent.Store(sp.id)
		rep := co.GatherNow(context.Background())
		sp.end()
		if !rep.Committed {
			close(stop)
			wg.Wait()
			return 0, fmt.Errorf("in-process gather round did not commit: %s", rep.Reason)
		}
	}
	close(stop)
	wg.Wait()
	m["cluster.fetched_mib_per_round"] = metric{float64(tt.fetchBytes.Load()) / float64(e.sz.rpRounds) / (1 << 20), "MiB"}
	perRound, err := fetchesPerRound(co)
	if err != nil {
		return 0, err
	}
	m["cluster.fetches_per_round"] = metric{perRound, "count"}

	for i := 0; i < e.sz.rpTopK; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, "/v1/topk?k="+strconv.Itoa(in.k), nil)
		sp := tr.begin("coord.topk", nil)
		co.ServeHTTP(rec, req)
		sp.end()
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("coordinator top-k: status %d", rec.Code)
		}
	}

	// One round's images, one replica per partition, decoded and merged
	// the way a gather round does.
	var images [][]byte
	for p := 0; p < topo.Partitions(); p++ {
		tn, err := nodeOf[topo.ReplicaSites(p)[0]].Tenants().Get(cluster.PartitionNamespace(p))
		if err != nil {
			continue
		}
		img, err := tn.CheckpointImage()
		if err != nil {
			return 0, err
		}
		images = append(images, img)
	}
	for i := 0; i < e.sz.rpEncodes; i++ {
		sp := tr.begin("sigstream.decode", nil)
		for _, img := range images {
			if err := new(sigstream.Sharded).UnmarshalBinary(img); err != nil {
				return 0, err
			}
		}
		sp.end()
		sp = tr.begin("sigstream.merge", nil)
		_, err := sigstream.MergeShardedCheckpoints(images...)
		sp.end()
		if err != nil {
			return 0, err
		}
	}
	return quantile(late.ms(), 0.99), nil
}

// gatherSpanMetrics derives the gather-phase metrics from spans of
// GatherNow rounds and the coordinator requests under them.
func gatherSpanMetrics(m map[string]metric, lt layerTimes) {
	fetch := sorted(lt.dur["cluster.fetch"])
	m["cluster.fetch_ms_p50"] = metric{quantile(fetch, 0.5) / 1e6, "ms"}
	m["cluster.fetch_ms_p90"] = metric{quantile(fetch, 0.9) / 1e6, "ms"}
	m["cluster.fetch_share"] = metric{sum(fetch) / sum(lt.dur["coord.gather"]), "share"}
	m["cluster.round_self_ms_p50"] = metric{quantile(sorted(lt.self["coord.gather"]), 0.5) / 1e6, "ms"}
}

// fetchesPerRound reads the coordinator's own counters from /v1/stats.
func fetchesPerRound(co *coord.Server) (float64, error) {
	rec := httptest.NewRecorder()
	co.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st struct {
		Rounds  uint64 `json:"rounds"`
		Fetches uint64 `json:"fetches"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.Rounds == 0 {
		return 0, fmt.Errorf("coordinator stats: %v (%s)", err, rec.Body.String())
	}
	return float64(st.Fetches) / float64(st.Rounds), nil
}
