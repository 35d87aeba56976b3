package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sigstream"
	"sigstream/internal/fault"
)

// fakeSite is an in-process SiteClient backed by real Sharded trackers,
// one per partition namespace, with scriptable failure modes.
type fakeSite struct {
	mu         sync.Mutex
	parts      map[string]*sigstream.Sharded
	names      map[string]map[uint64]string
	down       bool            // every call fails (node dead)
	corrupt    map[string]bool // namespaces served as garbage
	failFirst  int             // fail this many fetches, then recover
	failNames  int             // fail this many name fetches, then recover
	fetchCalls int
	nameCalls  int
	readyCalls int
}

func newFakeSite() *fakeSite {
	return &fakeSite{
		parts:   map[string]*sigstream.Sharded{},
		names:   map[string]map[uint64]string{},
		corrupt: map[string]bool{},
	}
}

func (f *fakeSite) tracker(ns string) *sigstream.Sharded {
	f.mu.Lock()
	defer f.mu.Unlock()
	tr, ok := f.parts[ns]
	if !ok {
		tr = sigstream.NewSharded(sigstream.Config{MemoryBytes: 32 << 10, Seed: 7}, 2)
		f.parts[ns] = tr
	}
	return tr
}

func (f *fakeSite) FetchCheckpoint(ctx context.Context, ns string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fetchCalls++
	if f.down {
		return nil, errors.New("connection refused")
	}
	if f.failFirst > 0 {
		f.failFirst--
		return nil, errors.New("i/o timeout")
	}
	if f.corrupt[ns] {
		return []byte("garbage"), nil
	}
	tr, ok := f.parts[ns]
	if !ok {
		return nil, ErrNoPartition
	}
	return tr.MarshalBinary()
}

func (f *fakeSite) FetchNames(ctx context.Context, ns string, k int) (map[uint64]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nameCalls++
	if f.down {
		return nil, errors.New("connection refused")
	}
	if f.failNames > 0 {
		f.failNames--
		return nil, errors.New("i/o timeout")
	}
	names := make(map[uint64]string, len(f.names[ns]))
	for item, key := range f.names[ns] {
		names[item] = key
	}
	return names, nil
}

func (f *fakeSite) Ready(ctx context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.readyCalls++
	if f.down {
		return errors.New("connection refused")
	}
	return nil
}

func (f *fakeSite) setDown(down bool) {
	f.mu.Lock()
	f.down = down
	f.mu.Unlock()
}

func (f *fakeSite) calls() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fetchCalls
}

// fastPolicy retries without real sleeping or jitter.
func fastPolicy() RetryPolicy {
	return RetryPolicy{
		Attempts:  2,
		BaseDelay: time.Millisecond,
		MaxDelay:  time.Millisecond,
		sleep:     func(time.Duration) {},
		rand:      func() float64 { return 1 },
	}
}

// testCluster wires a topology, fake sites, and a gatherer with a
// controllable clock.
type testCluster struct {
	topo  *Topology
	fakes map[string]*fakeSite
	g     *Gatherer
	clock time.Time
}

func newTestCluster(t testing.TB, partitions, replicas int, breaker BreakerConfig) *testCluster {
	t.Helper()
	return newTestClusterOver(t, testSites(), partitions, replicas, breaker)
}

// newTestClusterOver is newTestCluster over an explicit site list.
func newTestClusterOver(t testing.TB, sites []string, partitions, replicas int, breaker BreakerConfig) *testCluster {
	t.Helper()
	topo, err := NewTopology(sites, partitions, replicas)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{topo: topo, fakes: map[string]*fakeSite{}, clock: time.Unix(10000, 0)}
	clients := map[string]SiteClient{}
	for _, s := range sites {
		f := newFakeSite()
		tc.fakes[s] = f
		clients[s] = f
	}
	g, err := NewGatherer(GatherConfig{
		Topology: topo,
		Clients:  clients,
		Retry:    fastPolicy(),
		Breaker:  breaker,
		now:      func() time.Time { return tc.clock },
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.g = g
	return tc
}

// load inserts items 1..n on every replica of each item's partition and
// closes one period everywhere.
func (tc *testCluster) load(n int) {
	for i := 1; i <= n; i++ {
		tc.insert(uint64(i), 1)
	}
	tc.endPeriod()
}

// insert records n arrivals of item on every replica of its partition.
func (tc *testCluster) insert(item uint64, n int) {
	p := tc.topo.Partition(item)
	ns := PartitionNamespace(p)
	for _, site := range tc.topo.ReplicaSites(p) {
		tr := tc.fakes[site].tracker(ns)
		for i := 0; i < n; i++ {
			tr.Insert(item)
		}
	}
}

// endPeriod closes the current period of every partition on every site.
func (tc *testCluster) endPeriod() {
	for _, f := range tc.fakes {
		f.mu.Lock()
		for _, tr := range f.parts {
			tr.EndPeriod()
		}
		f.mu.Unlock()
	}
}

func TestGatherRoundCommitsHealthyCluster(t *testing.T) {
	tc := newTestCluster(t, 8, 2, BreakerConfig{})
	tc.load(100)
	rep := tc.g.Round(context.Background())
	if !rep.Committed {
		t.Fatalf("healthy round did not commit: %+v", rep)
	}
	if rep.Epoch != 1 {
		t.Fatalf("epoch %d, want 1", rep.Epoch)
	}
	if got := rep.HealthySites(); got != 3 {
		t.Fatalf("%d healthy sites, want 3: %+v", got, rep.Sites)
	}
	if got := rep.QuorumPartitions(); got != 8 {
		t.Fatalf("%d quorum partitions, want 8", got)
	}
	entries, info, ok := tc.g.TopK(200)
	if !ok {
		t.Fatal("no view after a committed round")
	}
	if info.Stale || info.Epoch != 1 {
		t.Fatalf("view info %+v, want fresh epoch-1 view", info)
	}
	if len(entries) != 100 {
		t.Fatalf("cluster view holds %d items, want 100", len(entries))
	}
	for _, e := range entries {
		if e.Frequency != 1 {
			t.Fatalf("item %d frequency %d, want 1 (replicas must not double-count)", e.Item, e.Frequency)
		}
	}
}

func TestGatherSurvivesSingleNodeDeath(t *testing.T) {
	tc := newTestCluster(t, 8, 2, BreakerConfig{})
	tc.load(100)
	for _, site := range tc.topo.Sites() {
		tc.fakes[site].setDown(true)
		rep := tc.g.Round(context.Background())
		if !rep.Committed {
			t.Fatalf("round with %s dead did not commit: %s", site, rep.Reason)
		}
		entries, _, ok := tc.g.TopK(200)
		if !ok || len(entries) != 100 {
			t.Fatalf("with %s dead: view has %d items, want all 100 (R=2 must mask one death)",
				site, len(entries))
		}
		var dead *SiteReport
		for i := range rep.Sites {
			if rep.Sites[i].Site == site {
				dead = &rep.Sites[i]
			}
		}
		if dead == nil || dead.Health == SiteHealthy {
			t.Fatalf("dead site %s reported healthy: %+v", site, rep.Sites)
		}
		if len(dead.Skips) == 0 {
			t.Fatalf("dead site %s has no skip reasons", site)
		}
		tc.fakes[site].setDown(false)
		tc.g.Round(context.Background()) // recovery round resets breaker state
	}
}

func TestGatherQuorumLossServesStaleView(t *testing.T) {
	tc := newTestCluster(t, 4, 1, BreakerConfig{Trip: 100})
	tc.load(50)
	if rep := tc.g.Round(context.Background()); !rep.Committed {
		t.Fatalf("healthy round did not commit: %+v", rep)
	}
	// R=1: killing the owner of any partition loses quorum on it.
	tc.fakes[tc.topo.ReplicaSites(0)[0]].setDown(true)
	tc.clock = tc.clock.Add(30 * time.Second)
	rep := tc.g.Round(context.Background())
	if rep.Committed {
		t.Fatal("round without quorum committed")
	}
	if !strings.Contains(rep.Reason, "quorum") {
		t.Fatalf("reason %q does not mention quorum", rep.Reason)
	}
	entries, info, ok := tc.g.TopK(100)
	if !ok || len(entries) != 50 {
		t.Fatalf("stale view lost: %d items, want 50", len(entries))
	}
	if !info.Stale {
		t.Fatal("view not marked stale after an uncommitted round")
	}
	if info.Epoch != 1 || info.AgeSeconds < 29 {
		t.Fatalf("view info %+v, want epoch 1 aged ≥29s", info)
	}
}

func TestGatherCorruptReplicaNotRetriedOtherReplicaMerged(t *testing.T) {
	tc := newTestCluster(t, 1, 2, BreakerConfig{})
	tc.load(20)
	reps := tc.topo.ReplicaSites(0)
	first := tc.fakes[reps[0]]
	first.corrupt[PartitionNamespace(0)] = true
	before := first.calls()
	rep := tc.g.Round(context.Background())
	if got := first.calls() - before; got != 1 {
		t.Fatalf("corrupt replica fetched %d times, want 1 (deterministic failures must not retry)", got)
	}
	if !rep.Committed {
		t.Fatalf("round did not commit despite a valid second replica: %s", rep.Reason)
	}
	if rep.Partitions[0].MergedFrom != reps[1] {
		t.Fatalf("merged from %q, want the clean replica %q", rep.Partitions[0].MergedFrom, reps[1])
	}
	entries, _, _ := tc.g.TopK(50)
	if len(entries) != 20 {
		t.Fatalf("view holds %d items, want 20", len(entries))
	}
}

func TestGatherTransientFailureRetriedWithinRound(t *testing.T) {
	tc := newTestCluster(t, 1, 1, BreakerConfig{})
	tc.load(10)
	site := tc.topo.ReplicaSites(0)[0]
	tc.fakes[site].failFirst = 1 // first fetch times out, retry succeeds
	rep := tc.g.Round(context.Background())
	if !rep.Committed {
		t.Fatalf("round did not commit after a retried transient failure: %s", rep.Reason)
	}
	if rep.Partitions[0].MergedFrom != site {
		t.Fatalf("merged from %q, want %q", rep.Partitions[0].MergedFrom, site)
	}
	st := tc.g.Stats()
	if st.FetchErrors == 0 {
		t.Fatal("transient failure left no fetch-error count")
	}
}

func TestGatherBreakerTripsThenRecoversViaReadyProbe(t *testing.T) {
	tc := newTestCluster(t, 8, 2, BreakerConfig{Trip: 2, Cooldown: 10 * time.Second})
	tc.load(100)
	dead := tc.topo.Sites()[1]
	tc.fakes[dead].setDown(true)

	// Two failed rounds trip the breaker.
	tc.g.Round(context.Background())
	tc.clock = tc.clock.Add(time.Second)
	tc.g.Round(context.Background())
	if st := tc.g.Stats(); st.BreakerState[dead] != BreakerOpen {
		t.Fatalf("breaker %v after %d failed rounds, want open", st.BreakerState[dead], 2)
	}

	// While open and inside the cooldown the site is not fetched at all.
	calls := tc.fakes[dead].calls()
	tc.clock = tc.clock.Add(time.Second)
	rep := tc.g.Round(context.Background())
	if got := tc.fakes[dead].calls() - calls; got != 0 {
		t.Fatalf("open breaker allowed %d fetches", got)
	}
	var tripped *SiteReport
	for i := range rep.Sites {
		if rep.Sites[i].Site == dead {
			tripped = &rep.Sites[i]
		}
	}
	if tripped.Health != SiteTripped || tripped.Breaker != "open" {
		t.Fatalf("tripped site reported %+v", tripped)
	}

	// Node comes back; after the cooldown a readiness probe half-opens the
	// breaker, the trial fetch succeeds, and the breaker closes.
	tc.fakes[dead].setDown(false)
	tc.clock = tc.clock.Add(10 * time.Second)
	rep = tc.g.Round(context.Background())
	if !rep.Committed {
		t.Fatalf("recovery round did not commit: %s", rep.Reason)
	}
	if tc.fakes[dead].readyCalls == 0 {
		t.Fatal("no readiness probe before half-opening")
	}
	if st := tc.g.Stats(); st.BreakerState[dead] != BreakerClosed {
		t.Fatalf("breaker %v after recovery, want closed", st.BreakerState[dead])
	}
	for _, sr := range rep.Sites {
		if sr.Site == dead && sr.Health != SiteHealthy {
			t.Fatalf("recovered site reported %+v", sr)
		}
	}
}

func TestGatherCommitFaultServesPreviousViewThenRecovers(t *testing.T) {
	tc := newTestCluster(t, 4, 2, BreakerConfig{})
	tc.load(50)
	if rep := tc.g.Round(context.Background()); !rep.Committed {
		t.Fatalf("healthy round did not commit: %+v", rep)
	}

	// Erroring hook: the round aborts between Collect and Commit.
	deactivate := fault.Activate(fault.CoordCommit, func(int) error {
		return errors.New("injected commit failure")
	})
	rep := tc.g.Round(context.Background())
	deactivate()
	if rep.Committed || !strings.Contains(rep.Reason, "commit aborted") {
		t.Fatalf("faulted round: %+v", rep)
	}
	if _, info, ok := tc.g.TopK(10); !ok || info.Epoch != 1 {
		t.Fatalf("previous view lost after commit fault: ok=%v info=%+v", ok, info)
	}

	// Panicking hook: the simulated crash unwinds out of Round; a fresh
	// round afterwards commits cleanly with no double-counting.
	deactivate = fault.Activate(fault.CoordCommit, func(int) error {
		panic("injected coordinator crash")
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panicking commit hook did not propagate")
			}
		}()
		tc.g.Round(context.Background())
	}()
	deactivate()

	rep = tc.g.Round(context.Background())
	if !rep.Committed {
		t.Fatalf("round after simulated crash did not commit: %s", rep.Reason)
	}
	entries, _, _ := tc.g.TopK(100)
	if len(entries) != 50 {
		t.Fatalf("view holds %d items, want 50", len(entries))
	}
	for _, e := range entries {
		if e.Frequency != 1 {
			t.Fatalf("item %d frequency %d after crash recovery, want 1", e.Item, e.Frequency)
		}
	}
}

func TestGatherPrefersFreshestReplica(t *testing.T) {
	tc := newTestCluster(t, 1, 2, BreakerConfig{})
	reps := tc.topo.ReplicaSites(0)
	ns := PartitionNamespace(0)
	// Replica 0 is a restarted node that missed a period of traffic;
	// replica 1 has the complete history.
	stale, fresh := tc.fakes[reps[0]].tracker(ns), tc.fakes[reps[1]].tracker(ns)
	for i := 1; i <= 10; i++ {
		stale.Insert(uint64(i))
		fresh.Insert(uint64(i))
	}
	stale.EndPeriod()
	fresh.EndPeriod()
	for i := 1; i <= 10; i++ {
		fresh.Insert(uint64(i))
	}
	fresh.EndPeriod()

	rep := tc.g.Round(context.Background())
	if !rep.Committed {
		t.Fatalf("round did not commit: %s", rep.Reason)
	}
	if rep.Partitions[0].MergedFrom != reps[1] {
		t.Fatalf("merged from %q, want the fresher replica %q", rep.Partitions[0].MergedFrom, reps[1])
	}
	entries, _, _ := tc.g.TopK(20)
	for _, e := range entries {
		if e.Frequency != 2 || e.Persistency != 2 {
			t.Fatalf("item %d = %+v, want the complete 2-period history", e.Item, e)
		}
	}
}

func TestGatherEmptyClusterCommitsEmptyView(t *testing.T) {
	tc := newTestCluster(t, 4, 2, BreakerConfig{})
	rep := tc.g.Round(context.Background())
	if !rep.Committed {
		t.Fatalf("empty-cluster round did not commit: %s", rep.Reason)
	}
	for _, pr := range rep.Partitions {
		if !pr.Quorum {
			t.Fatalf("partition %d missed quorum on a reachable empty cluster", pr.Partition)
		}
	}
	entries, _, ok := tc.g.TopK(10)
	if !ok || len(entries) != 0 {
		t.Fatalf("empty view: ok=%v entries=%v", ok, entries)
	}
}

func TestGatherResolvesNames(t *testing.T) {
	tc := newTestCluster(t, 2, 2, BreakerConfig{})
	item := uint64(42)
	p := tc.topo.Partition(item)
	ns := PartitionNamespace(p)
	for _, site := range tc.topo.ReplicaSites(p) {
		tc.fakes[site].tracker(ns).Insert(item)
		tc.fakes[site].names[ns] = map[uint64]string{item: "checkout-svc"}
	}
	if rep := tc.g.Round(context.Background()); !rep.Committed {
		t.Fatalf("round did not commit: %s", rep.Reason)
	}
	entries, _, _ := tc.g.TopK(10)
	if len(entries) != 1 || entries[0].Key != "checkout-svc" {
		t.Fatalf("entries %+v, want item 42 named checkout-svc", entries)
	}
}

func TestNewGathererValidation(t *testing.T) {
	if _, err := NewGatherer(GatherConfig{}); err == nil {
		t.Fatal("gatherer without topology accepted")
	}
	topo, err := NewTopology(testSites(), 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGatherer(GatherConfig{Topology: topo}); err == nil {
		t.Fatal("gatherer with missing site clients accepted")
	}
}

func TestGatherStatsSnapshot(t *testing.T) {
	tc := newTestCluster(t, 4, 2, BreakerConfig{})
	tc.load(30)
	tc.g.Round(context.Background())
	tc.clock = tc.clock.Add(7 * time.Second)
	st := tc.g.Stats()
	if st.Rounds != 1 || st.Commits != 1 || st.StaleRounds != 0 {
		t.Fatalf("counters %+v", st)
	}
	if st.Sites != 3 || st.Partitions != 4 || st.PartitionsQuorum != 4 || st.SitesHealthy != 3 {
		t.Fatalf("topology gauges %+v", st)
	}
	if st.ViewEpoch != 1 || st.ViewAgeSeconds < 6.9 {
		t.Fatalf("view gauges %+v", st)
	}
	if st.Fetches == 0 {
		t.Fatal("no fetches counted")
	}
}

func TestGatherReportString(t *testing.T) {
	// The report must render per-site state compactly for logs.
	rep := RoundReport{
		Committed: true, Epoch: 3,
		Partitions: []PartitionReport{{Partition: 0, Quorum: true}},
		Sites:      []SiteReport{{Site: "a", Health: SiteHealthy}},
	}
	if rep.QuorumPartitions() != 1 || rep.HealthySites() != 1 {
		t.Fatal("report counters wrong")
	}
	if fmt.Sprintf("%v", rep.Sites[0].Health) != "healthy" {
		t.Fatal("health class does not render")
	}
}

// nameCalls sums FetchNames calls across every fake site.
func (tc *testCluster) nameCalls() int {
	n := 0
	for _, f := range tc.fakes {
		f.mu.Lock()
		n += f.nameCalls
		f.mu.Unlock()
	}
	return n
}

// siteNameCalls reports one site's FetchNames calls.
func (tc *testCluster) siteNameCalls(site string) int {
	f := tc.fakes[site]
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nameCalls
}

func mustCommit(t *testing.T, tc *testCluster) RoundReport {
	t.Helper()
	rep := tc.g.Round(context.Background())
	if !rep.Committed {
		t.Fatalf("round did not commit: %s", rep.Reason)
	}
	return rep
}

func TestGatherNameCacheSkipsUnchangedPartitions(t *testing.T) {
	tc := newTestCluster(t, 8, 2, BreakerConfig{})
	tc.load(100)
	rep := mustCommit(t, tc)
	merged := 0
	for _, pr := range rep.Partitions {
		if pr.MergedFrom != "" {
			merged++
		}
	}
	if got := tc.nameCalls(); got != merged {
		t.Fatalf("first round asked for names %d times, want once per merged partition (%d)", got, merged)
	}
	for i := 0; i < 3; i++ {
		mustCommit(t, tc)
	}
	if got := tc.nameCalls(); got != merged {
		t.Fatalf("unchanged partitions re-asked for names: %d calls after 4 rounds, want %d", got, merged)
	}
}

func TestGatherNameCacheRefetchesOnChange(t *testing.T) {
	tc := newTestCluster(t, 4, 2, BreakerConfig{})
	tc.load(40)
	mustCommit(t, tc)
	item := uint64(7)
	p := tc.topo.Partition(item)
	ns := PartitionNamespace(p)

	// More arrivals in one partition: only that partition is re-asked.
	before := tc.nameCalls()
	tc.insert(item, 1)
	rep := mustCommit(t, tc)
	if got := tc.nameCalls() - before; got != 1 {
		t.Fatalf("arrivals in one partition caused %d name fetches, want 1", got)
	}

	// A closed period in that partition only: re-asked again.
	before = tc.nameCalls()
	for _, site := range tc.topo.ReplicaSites(p) {
		tc.fakes[site].tracker(ns).EndPeriod()
	}
	mustCommit(t, tc)
	if got := tc.nameCalls() - before; got != 1 {
		t.Fatalf("a closed period in one partition caused %d name fetches, want 1", got)
	}

	// The merged-from replica dies: the survivor's image enters the view
	// with the same periods and arrivals, and the survivor is asked.
	from := rep.Partitions[p].MergedFrom
	var other string
	for _, site := range tc.topo.ReplicaSites(p) {
		if site != from {
			other = site
		}
	}
	tc.fakes[from].setDown(true)
	before = tc.siteNameCalls(other)
	rep = mustCommit(t, tc)
	if rep.Partitions[p].MergedFrom != other {
		t.Fatalf("partition %d merged from %q, want the survivor %q", p, rep.Partitions[p].MergedFrom, other)
	}
	if got := tc.siteNameCalls(other) - before; got < 1 {
		t.Fatal("a switch of the merged-from site did not re-ask for names")
	}
}

func TestGatherNameFetchFailureRetriedNextRound(t *testing.T) {
	tc := newTestCluster(t, 1, 1, BreakerConfig{})
	item := uint64(42)
	ns := PartitionNamespace(0)
	site := tc.topo.ReplicaSites(0)[0]
	tc.fakes[site].tracker(ns).Insert(item)
	tc.fakes[site].names[ns] = map[uint64]string{item: "checkout-svc"}
	tc.fakes[site].failNames = 1

	mustCommit(t, tc)
	entries, _, _ := tc.g.TopK(1)
	if len(entries) != 1 || entries[0].Key != "42" {
		t.Fatalf("entries %+v, want the decimal fallback after a failed name fetch", entries)
	}
	mustCommit(t, tc) // same image: only the failure makes it ask again
	if got := tc.siteNameCalls(site); got != 2 {
		t.Fatalf("%d name fetches over two rounds, want 2 (a failure is not cached)", got)
	}
	entries, _, _ = tc.g.TopK(1)
	if len(entries) != 1 || entries[0].Key != "checkout-svc" {
		t.Fatalf("entries %+v, want item 42 named after the retry", entries)
	}
	mustCommit(t, tc)
	if got := tc.siteNameCalls(site); got != 2 {
		t.Fatalf("%d name fetches after a successful one, want still 2", got)
	}
}

// TestGatherViewMatchesMergeShardedCheckpoints checks that the view the
// Gatherer builds from trackers it decoded once is byte-identical to
// MergeShardedCheckpoints over the chosen replicas' images.
func TestGatherViewMatchesMergeShardedCheckpoints(t *testing.T) {
	tc := newTestCluster(t, 8, 2, BreakerConfig{})
	for p := 0; p < 3; p++ {
		tc.load(300)
	}
	rep := mustCommit(t, tc)
	var images [][]byte
	for _, pr := range rep.Partitions {
		if pr.MergedFrom == "" {
			continue
		}
		img, err := tc.fakes[pr.MergedFrom].FetchCheckpoint(context.Background(), pr.Namespace)
		if err != nil {
			t.Fatal(err)
		}
		images = append(images, img)
	}
	want, err := sigstream.MergeShardedCheckpoints(images...)
	if err != nil {
		t.Fatal(err)
	}
	wantImg, _ := want.MarshalBinary()
	tc.g.mu.Lock()
	gotImg, _ := tc.g.cur.tracker.MarshalBinary()
	tc.g.mu.Unlock()
	if !bytes.Equal(gotImg, wantImg) {
		t.Fatal("committed view differs from MergeShardedCheckpoints over the chosen images")
	}
}

// TestGatherTopKIsPrefixOfFreshRanking checks the once-ranked view
// against a fresh Sharded.TopK on the committed tracker, for several k,
// across epochs, with readers racing the rounds.
func TestGatherTopKIsPrefixOfFreshRanking(t *testing.T) {
	tc := newTestCluster(t, 8, 2, BreakerConfig{})
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					tc.g.TopK(10)
				}
			}
		}()
	}
	defer func() { close(stop); readers.Wait() }()
	for epoch := 1; epoch <= 3; epoch++ {
		tc.load(50 * epoch)
		mustCommit(t, tc)
		tc.g.mu.Lock()
		tracker := tc.g.cur.tracker
		tc.g.mu.Unlock()
		all := len(tracker.TopK(1 << 20))
		for _, k := range []int{0, 1, 10, all, all + 5} {
			got, info, ok := tc.g.TopK(k)
			if !ok || info.Epoch != epoch {
				t.Fatalf("epoch %d k=%d: ok=%v info %+v", epoch, k, ok, info)
			}
			want := tracker.TopK(k)
			if len(got) != len(want) {
				t.Fatalf("epoch %d k=%d: %d entries, fresh ranking has %d", epoch, k, len(got), len(want))
			}
			for i := range want {
				w, g := want[i], got[i]
				if g.Item != w.Item || g.Frequency != w.Frequency ||
					g.Persistency != w.Persistency || g.Significance != w.Significance {
					t.Fatalf("epoch %d k=%d entry %d: %+v, fresh ranking %+v", epoch, k, i, g, w)
				}
			}
		}
	}
}

// BenchmarkGatherRound prices one gather round over in-process sites
// shaped like the cluster-gather workload (16 partitions at R=2 on 3
// sites, 2-shard 8 KiB partition trackers), followed by the workload's 4
// reads of the top 300. One partition takes new arrivals per round, so
// the name cache re-asks for one partition each time.
func BenchmarkGatherRound(b *testing.B) {
	tc := newTestCluster(b, 16, 2, BreakerConfig{})
	for p := 0; p < 16; p++ {
		ns := PartitionNamespace(p)
		for _, site := range tc.topo.ReplicaSites(p) {
			f := tc.fakes[site]
			f.parts[ns] = sigstream.NewSharded(sigstream.Config{MemoryBytes: 8 << 10, Seed: 7}, 2)
			f.names[ns] = map[uint64]string{}
		}
	}
	for period := 0; period < 4; period++ {
		for i := 1; i <= 4000; i++ {
			tc.insert(uint64(i%1500+1), 1+i%3)
		}
		tc.endPeriod()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc.insert(uint64(i%1500+1), 1)
		if rep := tc.g.Round(context.Background()); !rep.Committed {
			b.Fatalf("round did not commit: %s", rep.Reason)
		}
		for r := 0; r < 4; r++ {
			tc.g.TopK(300)
		}
	}
}
