package main

import (
	"encoding/binary"
	"encoding/hex"

	"sigstream"
	"sigstream/internal/gen"
	"sigstream/internal/metrics"
	"sigstream/internal/oracle"
	"sigstream/internal/stream"
)

// keyStream is a generated key sequence cut into count-based periods:
// a period closes after every periodLen arrivals.
type keyStream struct {
	keys      []string
	items     []sigstream.Item // sigstream.HashKey of each key
	periodLen int
}

// newKeyStream draws a period-structured stream from internal/gen and
// renders each generated item as a 16-character hex key, the form the
// program receives.
func newKeyStream(cfg gen.Config) *keyStream {
	s := gen.Generate(cfg)
	ks := &keyStream{
		keys:      make([]string, len(s.Items)),
		items:     make([]sigstream.Item, len(s.Items)),
		periodLen: s.ItemsPerPeriod(),
	}
	names := make(map[stream.Item]string)
	for i, it := range s.Items {
		k, ok := names[it]
		if !ok {
			var b [8]byte
			binary.BigEndian.PutUint64(b[:], it)
			k = hex.EncodeToString(b[:])
			names[it] = k
		}
		ks.keys[i] = k
		ks.items[i] = sigstream.HashKey(k)
	}
	return ks
}

// periodAfter reports whether a period closes after arrival i (0-based,
// counted over the whole cyclic replay).
func (ks *keyStream) periodAfter(i int) bool { return (i+1)%ks.periodLen == 0 }

// evalPoint is one reported top-k list taken at a known point of the
// stream: after pos arrivals, with periods periods closed.
type evalPoint struct {
	pos     int
	periods uint64
	top     []stream.Entry
}

// scorePoints scores every point against the exact oracle at its
// position and averages the scores. It builds the oracle in one pass over
// the cyclic replay, closing periods where the replay does, and counts
// only the stream positions keep accepts (nil keeps all). Points must be
// in stream order.
func (ks *keyStream) scorePoints(points []evalPoint, k int, keep func(j int) bool) (accuracy, error) {
	o := oracle.New(stream.Weights{Alpha: sigstream.Balanced.Alpha, Beta: sigstream.Balanced.Beta})
	var accs []accuracy
	for i, p := 0, 0; p < len(points); i++ {
		for ; p < len(points) && points[p].pos == i; p++ {
			a, err := score(o, points[p].top, k, points[p].periods)
			if err != nil {
				return accuracy{}, err
			}
			accs = append(accs, a)
		}
		j := i % len(ks.items)
		if keep == nil || keep(j) {
			o.Insert(ks.items[j])
		}
		if ks.periodAfter(i) {
			o.EndPeriod()
		}
	}
	return mean(accs), nil
}

// mean averages accuracies.
func mean(as []accuracy) accuracy {
	var sum accuracy
	for _, a := range as {
		sum.precision += a.precision
		sum.are += a.are
	}
	n := float64(len(as))
	return accuracy{precision: sum.precision / n, are: sum.are / n}
}

// accuracy is one top-k evaluation against the oracle.
type accuracy struct {
	precision float64
	are       float64
}

// score evaluates a reported top-k list against the oracle with
// internal/metrics, and gates it: every reported item must exist in the
// stream, and no persistency may exceed the periods closed so far.
func score(o *oracle.Oracle, reported []stream.Entry, k int, periods uint64) (accuracy, error) {
	if len(reported) < k && len(reported) < o.Distinct() {
		return accuracy{}, gatef("top-%d returned %d entries for %d distinct items", k, len(reported), o.Distinct())
	}
	for _, e := range reported {
		if _, ok := o.Query(e.Item); !ok {
			return accuracy{}, gatef("reported item %x never arrived", e.Item)
		}
		if e.Persistency > periods {
			return accuracy{}, gatef("item %x: persistency %d exceeds %d periods", e.Item, e.Persistency, periods)
		}
	}
	rep := metrics.Score(o, o.TopK(k), reported, k)
	return accuracy{precision: rep.Precision, are: rep.ARE}, nil
}
