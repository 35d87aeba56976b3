package sigstream

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// partitionImages builds n checkpoint images shaped like the cluster
// tier's partitions: 2 shards over an 8 KiB budget, each fed its own
// skewed stream over a few periods.
func partitionImages(tb testing.TB, n int) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	images := make([][]byte, n)
	for p := range images {
		tr := NewSharded(Config{MemoryBytes: 8 << 10, Weights: Balanced, Seed: 7}, 2)
		for period := 0; period < 4; period++ {
			for i := 0; i < 4000; i++ {
				tr.Insert(Item(p)<<32 | Item(rng.Intn(3000)/(1+rng.Intn(8))))
			}
			tr.EndPeriod()
		}
		img, err := tr.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		images[p] = img
	}
	return images
}

// TestShardedMergeMatchesMergeShardedCheckpoints checks that folding
// decoded trackers with Sharded.Merge — the Gatherer's path — yields the
// same checkpoint bytes as MergeShardedCheckpoints over the images.
func TestShardedMergeMatchesMergeShardedCheckpoints(t *testing.T) {
	images := partitionImages(t, 6)
	want, err := MergeShardedCheckpoints(images...)
	if err != nil {
		t.Fatal(err)
	}
	root := new(Sharded)
	if err := root.UnmarshalBinary(images[0]); err != nil {
		t.Fatal(err)
	}
	for _, img := range images[1:] {
		next := new(Sharded)
		if err := next.DecodeFrom(bytes.NewReader(img)); err != nil {
			t.Fatal(err)
		}
		if err := root.Merge(next); err != nil {
			t.Fatal(err)
		}
	}
	wantImg, _ := want.MarshalBinary()
	gotImg, _ := root.MarshalBinary()
	if !bytes.Equal(wantImg, gotImg) {
		t.Fatal("Sharded.Merge fold differs from MergeShardedCheckpoints")
	}
	if err := root.Merge(NewSharded(Config{MemoryBytes: 8 << 10, Seed: 7}, 4)); err == nil {
		t.Fatal("merge across shard counts accepted")
	}
}

// TestShardedUnmarshalAllocBytes pins decode-in-place: restoring an image
// allocates its lanes and little else, so the bytes allocated per decode
// stay under twice the image size. A default-sized 64 KiB tracker built
// and thrown away per shard, or a copy of each shard image, breaks it.
func TestShardedUnmarshalAllocBytes(t *testing.T) {
	img := partitionImages(t, 1)[0]
	const runs = 50
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := new(Sharded).UnmarshalBinary(img); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perDecode := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := 2 * uint64(len(img)); perDecode >= limit {
		t.Fatalf("UnmarshalBinary allocates %d bytes per %d-byte image, want < %d",
			perDecode, len(img), limit)
	}
}

func BenchmarkMergeShardedCheckpoints(b *testing.B) {
	images := partitionImages(b, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MergeShardedCheckpoints(images...); err != nil {
			b.Fatal(err)
		}
	}
}
