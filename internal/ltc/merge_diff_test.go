package ltc

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"sigstream/internal/stream"
)

// mergeOracle is the original map-based merge, kept as the reference the
// scratch-slice kernel in merge.go must reproduce bit for bit: per bucket,
// sum both hosts' cells by id in a map, rank by float significance with
// the id tie-break, keep the first d.
func mergeOracle(l, other *LTC) error {
	if !l.Compatible(other) {
		return ErrIncompatible
	}
	type merged struct {
		id      uint64
		freq    uint64
		counter uint64
	}
	for b := 0; b < l.w; b++ {
		base, end := b*l.d, (b+1)*l.d
		sum := make(map[uint64]*merged, 2*l.d)
		absorb := func(host *LTC) {
			for i := base; i < end; i++ {
				if host.flags[i]&flagOccupied == 0 {
					continue
				}
				e := host.entry(i)
				m := sum[e.Item]
				if m == nil {
					m = &merged{id: e.Item}
					sum[e.Item] = m
				}
				m.freq += e.Frequency
				m.counter += e.Persistency
			}
		}
		absorb(l)
		absorb(other)
		all := make([]*merged, 0, len(sum))
		for _, m := range sum {
			all = append(all, m)
		}
		sort.Slice(all, func(i, j int) bool {
			si := l.opts.Weights.Significance(all[i].freq, all[i].counter)
			sj := l.opts.Weights.Significance(all[j].freq, all[j].counter)
			if si > sj || si < sj {
				return si > sj
			}
			return all[i].id < all[j].id
		})
		if len(all) > l.d {
			all = all[:l.d]
		}
		for j := 0; j < l.d; j++ {
			i := base + j
			if j < len(all) {
				l.ids[i] = all[j].id
				l.freqs[i] = saturate32(all[j].freq)
				l.counters[i] = saturate32(all[j].counter)
				l.flags[i] = flagOccupied
			} else {
				l.ids[i], l.freqs[i], l.counters[i], l.flags[i] = 0, 0, 0, 0
			}
		}
	}
	l.occupied = l.countOccupied()
	return nil
}

// cloneLTC deep-copies a tracker through its checkpoint image.
func cloneLTC(t *testing.T, l *LTC) *LTC {
	t.Helper()
	img, err := l.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	c := new(LTC)
	if err := c.UnmarshalBinary(img); err != nil {
		t.Fatal(err)
	}
	return c
}

// fillRandom overwrites every cell with random state drawn so that the
// interesting merge cases are common: ids from a small pool (so both
// hosts hold some of the same ids in a bucket), frequencies and counters
// from a narrow range (ties in significance) or near 2³²−1 (sums that
// saturate), pending parity flags, and empty cells.
func fillRandom(l *LTC, rng *rand.Rand) {
	for b := 0; b < l.w; b++ {
		used := map[uint64]bool{}
		for j := 0; j < l.d; j++ {
			i := b*l.d + j
			l.ids[i], l.freqs[i], l.counters[i], l.flags[i] = 0, 0, 0, 0
			if rng.Intn(5) == 0 {
				continue // empty cell
			}
			id := uint64(rng.Intn(3*l.d) + 1)
			if used[id] {
				continue // one cell per id per host, as Insert maintains
			}
			used[id] = true
			l.ids[i] = id
			switch rng.Intn(4) {
			case 0:
				l.freqs[i] = 1<<32 - 1 - uint32(rng.Intn(3))
				l.counters[i] = 1<<32 - 1 - uint32(rng.Intn(3))
			default:
				l.freqs[i] = uint32(rng.Intn(4))
				l.counters[i] = uint32(rng.Intn(4))
			}
			l.flags[i] = flagOccupied | uint8(rng.Intn(4)) // pending even/odd bits
		}
	}
	l.occupied = l.countOccupied()
}

// TestMergeMatchesMapOracle checks the allocation-free merge kernel
// against the map-based original on random cell states and on trackers
// fed real streams, across bucket widths, weightings and the Deviation
// Eliminator switch: the merged checkpoint images must be identical.
func TestMergeMatchesMapOracle(t *testing.T) {
	weights := []stream.Weights{stream.Balanced, stream.Frequent, {Alpha: 0.3, Beta: 2.5}}
	for _, d := range []int{1, 8, 64} {
		for _, noDE := range []bool{false, true} {
			for wi, w := range weights {
				opts := Options{MemoryBytes: CellBytes * d * 16, BucketWidth: d,
					Weights: w, Seed: 11, DisableDeviationEliminator: noDE}
				t.Run(fmt.Sprintf("d%d/noDE=%v/w%d", d, noDE, wi), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(d*10 + wi)))
					for trial := 0; trial < 20; trial++ {
						a, b := New(opts), New(opts)
						if trial%2 == 0 {
							fillRandom(a, rng)
							fillRandom(b, rng)
						} else {
							feed(a, b, rng, d)
						}
						checkMergeMatchesOracle(t, a, b)
					}
				})
			}
		}
	}
}

// feed drives a and b with overlapping Zipf-ish streams, leaving pending
// flags set by not closing the last period.
func feed(a, b *LTC, rng *rand.Rand, d int) {
	for p := 0; p < 4; p++ {
		for i := 0; i < 40*d; i++ {
			a.Insert(uint64(rng.Intn(8*d)/(1+rng.Intn(4)) + 1))
			b.Insert(uint64(rng.Intn(8*d)/(1+rng.Intn(4)) + 1))
		}
		if p < 3 {
			a.EndPeriod()
			b.EndPeriod()
		}
	}
}

func checkMergeMatchesOracle(t *testing.T, a, b *LTC) {
	t.Helper()
	want, got := cloneLTC(t, a), cloneLTC(t, a)
	if err := mergeOracle(want, b); err != nil {
		t.Fatal(err)
	}
	if err := got.Merge(b); err != nil {
		t.Fatal(err)
	}
	wantImg, _ := want.MarshalBinary()
	gotImg, _ := got.MarshalBinary()
	if !bytes.Equal(wantImg, gotImg) {
		wc, gc := want.cellStates(), got.cellStates()
		for i := range wc {
			if wc[i] != gc[i] {
				t.Fatalf("cell %d: kernel %+v, oracle %+v", i, gc[i], wc[i])
			}
		}
		t.Fatal("merged images differ outside the cells")
	}
}

// TestMergeTieBreaksByID pins the tie case directly: equal significance
// falls back to the smaller id, in the kernel as in the oracle.
func TestMergeTieBreaksByID(t *testing.T) {
	opts := Options{MemoryBytes: 2 * CellBytes, BucketWidth: 2, Weights: stream.Frequent}
	a, b := New(opts), New(opts)
	a.ids[0], a.freqs[0], a.flags[0] = 9, 5, flagOccupied
	a.ids[1], a.freqs[1], a.flags[1] = 4, 5, flagOccupied
	b.ids[0], b.freqs[0], b.flags[0] = 2, 5, flagOccupied
	a.occupied, b.occupied = 2, 1
	checkMergeMatchesOracle(t, a, b)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.ids[0] != 2 || a.ids[1] != 4 {
		t.Fatalf("kept ids %d,%d; want 2,4 (ties resolved by smaller id)", a.ids[0], a.ids[1])
	}
}

// TestMergeAllocs pins the kernel's one scratch allocation per call.
func TestMergeAllocs(t *testing.T) {
	opts := Options{MemoryBytes: 8 << 10, Weights: stream.Balanced, Seed: 3}
	a, b := New(opts), New(opts)
	rng := rand.New(rand.NewSource(1))
	fillRandom(a, rng)
	fillRandom(b, rng)
	if n := testing.AllocsPerRun(50, func() { _ = a.Merge(b) }); n > 1 {
		t.Fatalf("Merge allocates %.1f times per call, want ≤ 1", n)
	}
}
