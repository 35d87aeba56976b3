package sigstream

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sigstream/internal/ltc"
)

// shardedMagic identifies a Sharded checkpoint ("SGSH").
const shardedMagic = 0x48534753

// ErrBadShardedCheckpoint reports a corrupt Sharded checkpoint image.
var ErrBadShardedCheckpoint = errors.New("sigstream: bad sharded checkpoint")

// EncodeTo streams a checkpoint of every shard to w, shard by shard, so
// persistence layers (snapshots, tenant spill envelopes, the WAL restore
// record) never hold more than one shard's image in memory on top of the
// writer's own buffering. Safe to call concurrently with Insert. The wire
// format is identical to MarshalBinary:
//
//	offset  size  field
//	0       4     magic "SGSH"
//	4       4     shard count n
//	8       …     n × (u32 length | shard LTC image)
func (s *Sharded) EncodeTo(w io.Writer) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], shardedMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(s.shards)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var lenBuf [4]byte
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		img, err := sh.l.MarshalBinary()
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(img)))
		if _, err := w.Write(lenBuf[:]); err != nil {
			return err
		}
		if _, err := w.Write(img); err != nil {
			return err
		}
	}
	return nil
}

// DecodeFrom restores a Sharded tracker from an EncodeTo stream, reading
// exactly one checkpoint and nothing past it. The receiver's shard count
// and contents are replaced. Not safe to call concurrently with other
// operations. A declared shard size is read incrementally, so a forged
// multi-gigabyte length fails on the short read instead of driving a
// matching allocation.
func (s *Sharded) DecodeFrom(r io.Reader) error {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: short header", ErrBadShardedCheckpoint)
	}
	shards, err := shardsFor(hdr[:])
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	var lenBuf [4]byte
	for i := range shards {
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return fmt.Errorf("%w: truncated at shard %d", ErrBadShardedCheckpoint, i)
		}
		size := int64(binary.LittleEndian.Uint32(lenBuf[:]))
		buf.Reset()
		if _, err := io.CopyN(&buf, r, size); err != nil {
			return fmt.Errorf("%w: shard %d overruns image", ErrBadShardedCheckpoint, i)
		}
		if err := decodeShard(&shards[i], i, buf.Bytes()); err != nil {
			return err
		}
	}
	s.shards = shards
	return nil
}

// shardsFor validates a checkpoint header and allocates its shard slots.
func shardsFor(hdr []byte) ([]shard, error) {
	if binary.LittleEndian.Uint32(hdr) != shardedMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadShardedCheckpoint)
	}
	n := int(binary.LittleEndian.Uint32(hdr[4:]))
	if n < 1 || n > 1<<16 {
		return nil, fmt.Errorf("%w: implausible shard count %d", ErrBadShardedCheckpoint, n)
	}
	return make([]shard, n), nil
}

// decodeShard restores shard i straight into a zero LTC: the image
// dictates the geometry, so no default-sized tracker is built only to be
// replaced.
func decodeShard(sh *shard, i int, img []byte) error {
	sh.l = new(ltc.LTC)
	if err := sh.l.UnmarshalBinary(img); err != nil {
		return fmt.Errorf("shard %d: %w", i, err)
	}
	return nil
}

// MarshalBinary snapshots every shard into one image
// (encoding.BinaryMarshaler); a thin wrapper over EncodeTo. Safe to call
// concurrently with Insert.
func (s *Sharded) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := s.EncodeTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a Sharded tracker from a MarshalBinary image
// (encoding.BinaryUnmarshaler). It decodes each shard in place from data,
// without the intermediate copy DecodeFrom's streaming needs, and rejects
// trailing bytes. Not safe to call concurrently with other operations.
func (s *Sharded) UnmarshalBinary(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("%w: short header", ErrBadShardedCheckpoint)
	}
	shards, err := shardsFor(data)
	if err != nil {
		return err
	}
	rest := data[8:]
	for i := range shards {
		if len(rest) < 4 {
			return fmt.Errorf("%w: truncated at shard %d", ErrBadShardedCheckpoint, i)
		}
		size := uint64(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if size > uint64(len(rest)) {
			return fmt.Errorf("%w: shard %d overruns image", ErrBadShardedCheckpoint, i)
		}
		if err := decodeShard(&shards[i], i, rest[:size]); err != nil {
			return err
		}
		rest = rest[size:]
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadShardedCheckpoint, len(rest))
	}
	s.shards = shards
	return nil
}

var (
	_ interface {
		MarshalBinary() ([]byte, error)
		UnmarshalBinary([]byte) error
	} = (*Sharded)(nil)
)
