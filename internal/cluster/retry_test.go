package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"sigstream"
)

// scriptSite is a SiteClient whose checkpoint fetches follow a script.
type scriptSite struct {
	fetch func() ([]byte, error)
}

func (s scriptSite) FetchCheckpoint(context.Context, string) ([]byte, error) { return s.fetch() }

func (scriptSite) FetchNames(context.Context, string, int) (map[uint64]string, error) {
	return nil, nil
}

func (scriptSite) Ready(context.Context) error { return nil }

// collectFrom runs one replica fetch of the Gatherer — the collection of
// one partition image from one site — against a scripted site under
// policy.
func collectFrom(t *testing.T, fetch func() ([]byte, error), policy RetryPolicy) replicaFetch {
	t.Helper()
	topo, err := NewTopology([]string{"rack-a"}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	site := scriptSite{fetch: fetch}
	g, err := NewGatherer(GatherConfig{Topology: topo,
		Clients: map[string]SiteClient{"rack-a": site}, Retry: policy})
	if err != nil {
		t.Fatal(err)
	}
	return g.fetchReplica(context.Background(), site, PartitionNamespace(0))
}

// siteImage returns the checkpoint image of a site tracker holding items.
func siteImage(t *testing.T, items ...uint64) []byte {
	t.Helper()
	tr := sigstream.NewSharded(sigstream.Config{MemoryBytes: 16 << 10, Seed: 5}, 2)
	for _, it := range items {
		tr.Insert(it)
	}
	tr.EndPeriod()
	img, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// flakyFetcher fails the first failures calls, then serves img.
func flakyFetcher(img []byte, failures int) func() ([]byte, error) {
	calls := 0
	return func() ([]byte, error) {
		calls++
		if calls <= failures {
			return nil, fmt.Errorf("connection refused (call %d)", calls)
		}
		return img, nil
	}
}

// recordedPolicy returns a policy whose sleeps are captured instead of
// slept and whose jitter source is pinned to 1, so the exact un-jittered
// backoff shape is asserted without wall-clock time.
func recordedPolicy(attempts int, base, max time.Duration) (RetryPolicy, *[]time.Duration) {
	var slept []time.Duration
	return RetryPolicy{
		Attempts:  attempts,
		BaseDelay: base,
		MaxDelay:  max,
		sleep:     func(d time.Duration) { slept = append(slept, d) },
		rand:      func() float64 { return 1 },
	}, &slept
}

func TestCollectFromRetriesTransientFailure(t *testing.T) {
	policy, slept := recordedPolicy(4, 50*time.Millisecond, time.Second)
	res := collectFrom(t, flakyFetcher(siteImage(t, 7), 2), policy)
	if res.class != fetchOK || res.tracker == nil {
		t.Fatalf("fetch with 2 transient failures: class %v err %v", res.class, res.err)
	}
	if e, ok := res.tracker.Query(7); !ok || e.Frequency != 1 {
		t.Fatalf("retried image lost its item: %+v ok=%v", e, ok)
	}
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond}
	if len(*slept) != len(want) || (*slept)[0] != want[0] || (*slept)[1] != want[1] {
		t.Fatalf("backoff %v, want %v (exponential from base)", *slept, want)
	}
}

func TestCollectFromExhaustsAttemptsWithCappedBackoff(t *testing.T) {
	policy, slept := recordedPolicy(5, 400*time.Millisecond, time.Second)
	dead := errors.New("site is on fire")
	res := collectFrom(t, func() ([]byte, error) { return nil, dead }, policy)
	if res.class != fetchUnreachable {
		t.Fatalf("fetch from a dead site: class %v, want unreachable", res.class)
	}
	if !errors.Is(res.err, dead) {
		t.Fatalf("error %v does not wrap the fetch failure", res.err)
	}
	if !strings.Contains(res.err.Error(), "after 5 attempts") {
		t.Fatalf("error %q does not report the attempt count", res.err)
	}
	// 400 doubles to 800, then the 1s cap holds.
	want := []time.Duration{400 * time.Millisecond, 800 * time.Millisecond, time.Second, time.Second}
	if len(*slept) != len(want) {
		t.Fatalf("slept %v, want %v", *slept, want)
	}
	for i := range want {
		if (*slept)[i] != want[i] {
			t.Fatalf("backoff step %d = %v, want %v (cap at MaxDelay)", i, (*slept)[i], want[i])
		}
	}
}

func TestCollectFromDoesNotRetryCorruptCheckpoint(t *testing.T) {
	calls := 0
	policy, slept := recordedPolicy(4, time.Millisecond, time.Second)
	res := collectFrom(t, func() ([]byte, error) {
		calls++
		return []byte("not a checkpoint"), nil
	}, policy)
	if res.class != fetchCorrupt {
		t.Fatalf("corrupt checkpoint: class %v, want corrupt", res.class)
	}
	if calls != 1 || len(*slept) != 0 {
		t.Fatalf("corrupt checkpoint fetched %d times with %d sleeps; deterministic failures must not retry",
			calls, len(*slept))
	}
}

func TestCollectFromBackoffAppliesFullJitter(t *testing.T) {
	var slept []time.Duration
	policy := RetryPolicy{
		Attempts:  4,
		BaseDelay: 100 * time.Millisecond,
		MaxDelay:  time.Second,
		sleep:     func(d time.Duration) { slept = append(slept, d) },
		rand:      func() float64 { return 0.25 },
	}
	res := collectFrom(t, func() ([]byte, error) {
		return nil, errors.New("connection reset")
	}, policy)
	if res.class != fetchUnreachable {
		t.Fatalf("fetch from a dead site: class %v, want unreachable", res.class)
	}
	// Full jitter scales each capped-exponential ceiling (100ms, 200ms,
	// 400ms) by the rand draw, here pinned to 0.25.
	want := []time.Duration{25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("jittered backoff step %d = %v, want %v (rand·ceiling)", i, slept[i], want[i])
		}
	}
}

func TestCollectFromDefaultJitterStaysUnderCeiling(t *testing.T) {
	var slept []time.Duration
	policy := RetryPolicy{
		Attempts:  5,
		BaseDelay: 80 * time.Millisecond,
		MaxDelay:  200 * time.Millisecond,
		sleep:     func(d time.Duration) { slept = append(slept, d) },
		// rand deliberately nil: the default source must be installed.
	}
	res := collectFrom(t, func() ([]byte, error) {
		return nil, errors.New("connection reset")
	}, policy)
	if res.class != fetchUnreachable {
		t.Fatalf("fetch from a dead site: class %v, want unreachable", res.class)
	}
	ceilings := []time.Duration{80 * time.Millisecond, 160 * time.Millisecond,
		200 * time.Millisecond, 200 * time.Millisecond}
	if len(slept) != len(ceilings) {
		t.Fatalf("slept %v, want %d jittered waits", slept, len(ceilings))
	}
	for i, d := range slept {
		if d < 0 || d > ceilings[i] {
			t.Fatalf("jittered wait %d = %v outside [0, %v]", i, d, ceilings[i])
		}
	}
}

// siteReport finds one site's entry in a round report.
func siteReport(t *testing.T, rep RoundReport, site string) SiteReport {
	t.Helper()
	for _, sr := range rep.Sites {
		if sr.Site == site {
			return sr
		}
	}
	t.Fatalf("site %s missing from report %+v", site, rep.Sites)
	return SiteReport{}
}

func TestGatherRoundMergesDegradedView(t *testing.T) {
	tc := newTestCluster(t, 4, 2, BreakerConfig{})
	tc.load(40)
	dead := tc.topo.Sites()[2]
	tc.fakes[dead].setDown(true)
	rep := tc.g.Round(context.Background())
	if !rep.Committed {
		t.Fatalf("round with one dead site of R=2 did not commit: %s", rep.Reason)
	}
	if sr := siteReport(t, rep, dead); sr.Health != SiteDegraded || len(sr.Skips) == 0 {
		t.Fatalf("dead site reported %+v, want degraded with skip reasons", sr)
	}
	for _, pr := range rep.Partitions {
		if pr.MergedFrom == dead {
			t.Fatalf("partition %d merged from the dead site", pr.Partition)
		}
	}
	// The degraded view carries every item, once.
	entries, _, _ := tc.g.TopK(100)
	if len(entries) != 40 {
		t.Fatalf("degraded view holds %d items, want 40", len(entries))
	}
	for _, e := range entries {
		if e.Frequency != 1 {
			t.Fatalf("item %d frequency %d, want 1", e.Item, e.Frequency)
		}
	}
}

// TestGatherRoundMixedFailureModes exercises one round with every failure
// class at once on the four replicas of one partition: a site that times
// out twice before answering (retried to success), a site serving a
// corrupt checkpoint (deterministic, never retried), a dead site
// (retries exhausted), and a healthy site. Two valid replicas meet the
// quorum of 2, so the round commits with exactly one of them merged.
func TestGatherRoundMixedFailureModes(t *testing.T) {
	sites := append(testSites(), "http://n4:8080")
	tc := newTestClusterOver(t, sites, 1, 4, BreakerConfig{})
	policy, slept := recordedPolicy(3, time.Millisecond, time.Millisecond)
	tc.g.cfg.Retry = policy
	tc.load(10)
	ns := PartitionNamespace(0)
	reps := tc.topo.ReplicaSites(0)
	healthy, slow, corrupt, dead := reps[0], reps[1], reps[2], reps[3]
	tc.fakes[slow].failFirst = 2
	tc.fakes[corrupt].corrupt[ns] = true
	tc.fakes[dead].setDown(true)

	rep := tc.g.Round(context.Background())
	if got := tc.fakes[slow].calls(); got != 3 {
		t.Fatalf("timing-out site fetched %d times, want 3 (transient failures retry)", got)
	}
	if got := tc.fakes[corrupt].calls(); got != 1 {
		t.Fatalf("corrupt site fetched %d times, want 1 (deterministic failures must not retry)", got)
	}
	if !rep.Committed {
		t.Fatalf("round with two valid replicas did not commit: %s", rep.Reason)
	}
	if pr := rep.Partitions[0]; pr.Reported != 2 || (pr.MergedFrom != healthy && pr.MergedFrom != slow) {
		t.Fatalf("partition report %+v, want 2 reports merged from %s or %s", pr, healthy, slow)
	}
	for _, site := range []string{corrupt, dead} {
		if sr := siteReport(t, rep, site); len(sr.Skips) == 0 {
			t.Fatalf("site %s reported %+v, want a skip reason", site, sr)
		}
	}
	// Only the timing-out and the dead site slept: two retries each at
	// the (jitter-pinned) 1ms base.
	if len(*slept) != 4 {
		t.Fatalf("observed %d sleeps (%v), want 4: 2 for the slow site, 2 for the dead one", len(*slept), *slept)
	}
	entries, _, _ := tc.g.TopK(20)
	if len(entries) != 10 {
		t.Fatalf("view holds %d items, want 10", len(entries))
	}
	for _, e := range entries {
		if e.Frequency != 1 {
			t.Fatalf("item %d frequency %d, want 1", e.Item, e.Frequency)
		}
	}
	// The report survives the round on the gatherer.
	last, ok := tc.g.LastRound()
	if !ok {
		t.Fatal("LastRound empty after a round")
	}
	if last.Epoch != rep.Epoch || last.Committed != rep.Committed || len(last.Sites) != len(rep.Sites) {
		t.Fatalf("LastRound %+v does not match the returned report %+v", last, rep)
	}
}

func TestLastReportEmptyBeforeFirstRound(t *testing.T) {
	tc := newTestCluster(t, 2, 2, BreakerConfig{})
	if _, ok := tc.g.LastRound(); ok {
		t.Fatal("LastRound reported a round before one ran")
	}
}

func TestGatherRoundAllDeadKeepsPreviousView(t *testing.T) {
	tc := newTestCluster(t, 2, 2, BreakerConfig{})
	for i := 0; i < 5; i++ {
		tc.load(1)
	}
	if rep := tc.g.Round(context.Background()); !rep.Committed || rep.Epoch != 1 {
		t.Fatalf("healthy round: %+v", rep)
	}
	for _, f := range tc.fakes {
		f.setDown(true)
	}
	rep := tc.g.Round(context.Background())
	if rep.Committed || rep.Epoch != 1 {
		t.Fatalf("all-dead round: %+v, want uncommitted at epoch 1", rep)
	}
	// Stale beats blank: the previous round's view still answers.
	entries, info, ok := tc.g.TopK(10)
	if !ok || len(entries) != 1 || entries[0].Frequency != 5 {
		t.Fatalf("previous view lost after an all-dead round: %+v ok=%v", entries, ok)
	}
	if !info.Stale {
		t.Fatal("view not marked stale after an all-dead round")
	}
}
