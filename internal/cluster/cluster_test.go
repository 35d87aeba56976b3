package cluster

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRoundMergesSites(t *testing.T) {
	tc := newTestCluster(t, 8, 2, BreakerConfig{})
	for p := 0; p < 3; p++ {
		tc.insert(1, 10)
		tc.insert(2, 10)
		tc.endPeriod()
		if rep := tc.g.Round(context.Background()); !rep.Committed {
			t.Fatalf("round %d did not commit: %s", p, rep.Reason)
		}
	}
	entries, info, ok := tc.g.TopK(2)
	if !ok || info.Epoch != 3 {
		t.Fatalf("view ok=%v epoch %d, want 3", ok, info.Epoch)
	}
	if len(entries) != 2 {
		t.Fatalf("global TopK returned %d entries", len(entries))
	}
	for _, e := range entries {
		if e.Frequency != 30 || e.Persistency != 3 {
			t.Fatalf("item %d = %+v, want frequency 30 over 3 periods", e.Item, e)
		}
	}
}

func TestCoordinatorBeforeFirstCommit(t *testing.T) {
	tc := newTestCluster(t, 4, 2, BreakerConfig{})
	tc.load(10)
	if entries, _, ok := tc.g.TopK(5); ok || entries != nil {
		t.Fatalf("TopK before any commit = %v ok=%v, want nothing", entries, ok)
	}
	if _, ok := tc.g.ViewInfo(); ok {
		t.Fatal("ViewInfo before any commit must miss")
	}
}

// TestDuplicateCollectionRejected checks that the R images of one
// partition are never merged together: every replica reports, exactly
// one image enters the view, and counts are not multiplied by R.
func TestDuplicateCollectionRejected(t *testing.T) {
	tc := newTestCluster(t, 1, 3, BreakerConfig{})
	tc.load(20)
	rep := tc.g.Round(context.Background())
	if !rep.Committed {
		t.Fatalf("round did not commit: %s", rep.Reason)
	}
	if pr := rep.Partitions[0]; pr.Reported != 3 || pr.MergedFrom == "" {
		t.Fatalf("partition report %+v, want 3 reports and one merged replica", pr)
	}
	entries, _, _ := tc.g.TopK(50)
	if len(entries) != 20 {
		t.Fatalf("view holds %d items, want 20", len(entries))
	}
	for _, e := range entries {
		if e.Frequency != 1 {
			t.Fatalf("item %d frequency %d, want 1 (replicas must not be summed)", e.Item, e.Frequency)
		}
	}
}

func TestCollectRejectsGarbage(t *testing.T) {
	tc := newTestCluster(t, 1, 1, BreakerConfig{})
	tc.load(5)
	site := tc.topo.ReplicaSites(0)[0]
	tc.fakes[site].corrupt[PartitionNamespace(0)] = true
	rep := tc.g.Round(context.Background())
	if rep.Committed || !strings.Contains(rep.Reason, "quorum") {
		t.Fatalf("round over a garbage-only partition: %+v", rep)
	}
	sr := siteReport(t, rep, site)
	if len(sr.Skips) != 1 || !strings.Contains(sr.Skips[0], "corrupt checkpoint") {
		t.Fatalf("skips %v, want one corrupt-checkpoint reason", sr.Skips)
	}
	if _, _, ok := tc.g.TopK(5); ok {
		t.Fatal("garbage checkpoint produced a view")
	}
}

// TestCommitWithoutCollectionsKeepsOldView runs a round in which every
// breaker is open, so nothing is fetched at all: the round must not
// commit, and the previous view keeps answering.
func TestCommitWithoutCollectionsKeepsOldView(t *testing.T) {
	tc := newTestCluster(t, 4, 2, BreakerConfig{Trip: 1, Cooldown: time.Hour})
	tc.load(7)
	if rep := tc.g.Round(context.Background()); !rep.Committed {
		t.Fatalf("healthy round did not commit: %s", rep.Reason)
	}
	for _, f := range tc.fakes {
		f.setDown(true)
	}
	tc.g.Round(context.Background()) // trips every breaker
	calls := 0
	for _, f := range tc.fakes {
		calls += f.calls()
	}
	rep := tc.g.Round(context.Background())
	after := 0
	for _, f := range tc.fakes {
		after += f.calls()
	}
	if after != calls {
		t.Fatalf("open breakers allowed %d fetches", after-calls)
	}
	if rep.Committed {
		t.Fatal("round without collections committed")
	}
	entries, info, ok := tc.g.TopK(10)
	if !ok || info.Epoch != 1 || len(entries) != 7 {
		t.Fatalf("previous view lost: ok=%v epoch %d, %d entries", ok, info.Epoch, len(entries))
	}
}

// TestConcurrentSiteIngestion runs gather rounds and view readers while
// producers write to the sites; the final round must hold every arrival
// exactly once.
func TestConcurrentSiteIngestion(t *testing.T) {
	tc := newTestCluster(t, 4, 2, BreakerConfig{})
	tc.load(100) // create every partition's trackers up front
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tc.insert(uint64((g*2000+i)%100+1), 1)
			}
		}(g)
	}
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
	for i := 0; i < 5; i++ {
		tc.g.Round(context.Background())
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	if rep := tc.g.Round(context.Background()); !rep.Committed {
		t.Fatalf("final round did not commit: %s", rep.Reason)
	}
	var total uint64
	entries, _, _ := tc.g.TopK(1 << 20)
	for _, e := range entries {
		total += e.Frequency
	}
	if want := uint64(100 + 4*2000); total != want {
		t.Fatalf("global frequency sum %d, want %d", total, want)
	}
}

func TestGlobalRankingAcrossSites(t *testing.T) {
	// A partition-local ranking would miss cross-partition comparisons:
	// one partition's #2 may be globally #1.
	tc := newTestCluster(t, 8, 2, BreakerConfig{})
	for p := 0; p < 2; p++ {
		tc.insert(100, 50)
		tc.insert(101, 40)
		tc.insert(200, 45)
		tc.endPeriod()
		if rep := tc.g.Round(context.Background()); !rep.Committed {
			t.Fatalf("round did not commit: %s", rep.Reason)
		}
	}
	top, _, _ := tc.g.TopK(3)
	if len(top) != 3 || top[0].Item != 100 || top[1].Item != 200 || top[2].Item != 101 {
		t.Fatalf("global ranking wrong: %+v", top)
	}
}
