package sigstream

import (
	"errors"
	"fmt"

	"sigstream/internal/ltc"
)

// ErrNoCheckpoints reports an empty checkpoint list.
var ErrNoCheckpoints = errors.New("sigstream: no checkpoints to merge")

// MergeCheckpoints restores each binary checkpoint (as produced by
// LTC.MarshalBinary) and folds them into a single tracker — the one-call
// aggregation path for per-site summaries. All checkpoints must come from
// trackers built with the same Config.
func MergeCheckpoints(images ...[]byte) (*LTC, error) {
	if len(images) == 0 {
		return nil, ErrNoCheckpoints
	}
	root, err := decodeLTC(images[0])
	if err != nil {
		return nil, fmt.Errorf("checkpoint 0: %w", err)
	}
	for i, img := range images[1:] {
		shard, err := decodeLTC(img)
		if err != nil {
			return nil, fmt.Errorf("checkpoint %d: %w", i+1, err)
		}
		if err := root.Merge(shard); err != nil {
			return nil, fmt.Errorf("checkpoint %d: %w", i+1, err)
		}
	}
	return root, nil
}

// decodeLTC restores a tracker straight from its image: the image
// dictates the geometry, so no default-sized tracker is built first.
func decodeLTC(img []byte) (*LTC, error) {
	l := new(ltc.LTC)
	if err := l.UnmarshalBinary(img); err != nil {
		return nil, err
	}
	return &LTC{wrap: wrap{l}, l: l}, nil
}

// MergeShardedCheckpoints restores each binary checkpoint (as produced by
// Sharded.MarshalBinary, and as served by sigserver's checkpoint route)
// and folds them in order into the first with Sharded.Merge — the
// aggregation path a cluster coordinator uses on images pulled from
// remote sites. All checkpoints must come from trackers built with the
// same Config and shard count: shard i of every image merges into shard i
// of the result, preserving the hash partition, so the merged tracker
// answers TopK and Query exactly as one tracker that saw every site's
// arrivals.
func MergeShardedCheckpoints(images ...[]byte) (*Sharded, error) {
	if len(images) == 0 {
		return nil, ErrNoCheckpoints
	}
	trackers := make([]*Sharded, len(images))
	for i, img := range images {
		trackers[i] = new(Sharded)
		if err := trackers[i].UnmarshalBinary(img); err != nil {
			return nil, fmt.Errorf("checkpoint %d: %w", i, err)
		}
	}
	root := trackers[0]
	for i, next := range trackers[1:] {
		if err := root.Merge(next); err != nil {
			return nil, fmt.Errorf("checkpoint %d: %w", i+1, err)
		}
	}
	return root, nil
}
