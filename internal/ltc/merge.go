package ltc

// Merging: two LTCs built over disjoint sub-streams of the same stream
// (e.g. per-switch shards in the paper's data-center use case) combine into
// one summary of the union. Both trackers must share geometry, weights and
// hash seed, so any item maps to the same bucket in both.
//
// Merging is lossy in exactly the way LTC itself is lossy: each bucket of
// the result keeps the d cells with the largest significance among the two
// buckets' entries (summing frequency/persistency for items present in
// both). Persistency is summed, which is correct when the shards partition
// the arrivals of each period between them only if an item's per-period
// appearances land in a single shard; for hash-sharded streams
// (sigstream.Sharded) that holds by construction.

import (
	"cmp"
	"errors"
	"slices"
)

// ErrIncompatible reports a merge between trackers of different shape.
var ErrIncompatible = errors.New("ltc: incompatible trackers")

// Compatible reports whether two trackers can be merged.
func (l *LTC) Compatible(other *LTC) bool {
	return l.w == other.w && l.d == other.d &&
		//siglint:ignore exact config-identity check: merge requires bit-identical weights, and Validate rejects NaN so == is total here
		l.opts.Weights == other.opts.Weights &&
		l.opts.Seed == other.opts.Seed &&
		l.opts.DisableDeviationEliminator == other.opts.DisableDeviationEliminator
}

// Merge folds other into l. Both must be compatible; other is not
// modified. Pending flag bits of both trackers are folded into the merged
// persistency counters (so Merge is intended for end-of-stream or
// end-of-period aggregation, after both sides saw EndPeriod).
//
// The kernel works bucket by bucket in one scratch slice: gather both
// buckets' occupied cells, sort them by id and sum duplicate ids, compute
// each survivor's significance once, then rank by (significance desc, id
// asc) and keep the first d. Ids are unique after the summing pass, so
// that order is total and the result does not depend on the sort
// algorithm. The scratch slice is the call's only allocation.
func (l *LTC) Merge(other *LTC) error {
	if !l.Compatible(other) {
		return ErrIncompatible
	}
	cells := make([]mergeCell, 0, 2*l.d)
	for b := 0; b < l.w; b++ {
		base, end := b*l.d, (b+1)*l.d
		cells = l.appendCells(cells[:0], base, end)
		cells = other.appendCells(cells, base, end)
		slices.SortFunc(cells, byID)
		n := 0
		for _, c := range cells {
			if n > 0 && cells[n-1].id == c.id {
				cells[n-1].freq += c.freq
				cells[n-1].counter += c.counter
				continue
			}
			cells[n] = c
			n++
		}
		cells = cells[:n]
		for i := range cells {
			cells[i].sig = l.opts.Weights.Significance(cells[i].freq, cells[i].counter)
		}
		slices.SortFunc(cells, bySignificance)
		for j := 0; j < l.d; j++ {
			i := base + j
			if j < len(cells) {
				l.ids[i] = cells[j].id
				l.freqs[i] = saturate32(cells[j].freq)
				l.counters[i] = saturate32(cells[j].counter)
				l.flags[i] = flagOccupied
			} else {
				l.ids[i] = 0
				l.freqs[i] = 0
				l.counters[i] = 0
				l.flags[i] = 0
			}
		}
	}
	l.occupied = l.countOccupied()
	return nil
}

// mergeCell is one candidate of a bucket merge, with sums widened to 64
// bits so saturation happens once, on store.
type mergeCell struct {
	id      uint64
	freq    uint64
	counter uint64
	sig     float64
}

// appendCells appends the occupied cells of [base, end) to dst, folding
// pending flag bits into persistency exactly as entry does.
func (l *LTC) appendCells(dst []mergeCell, base, end int) []mergeCell {
	for i := base; i < end; i++ {
		if l.flags[i]&flagOccupied == 0 {
			continue
		}
		dst = append(dst, mergeCell{id: l.ids[i], freq: uint64(l.freqs[i]), counter: l.persistency(i)})
	}
	return dst
}

func byID(a, b mergeCell) int { return cmp.Compare(a.id, b.id) }

// bySignificance orders merge candidates by significance descending, ids
// ascending on ties: the float reporting order TopK uses.
func bySignificance(a, b mergeCell) int {
	switch {
	case a.sig > b.sig:
		return -1
	case a.sig < b.sig:
		return 1
	}
	return cmp.Compare(a.id, b.id)
}

func saturate32(v uint64) uint32 {
	if v > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(v)
}
