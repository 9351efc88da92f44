package trapquorum

import (
	"context"
	"fmt"
	"sync"

	"trapquorum/internal/erasure"
)

// objectSizes records the payload size of every stripe the test-only
// WriteObject stored, per store, for ReadObject to trim to.
var objectSizes sync.Map // objectKey → int

type objectKey struct {
	s  *Store
	id uint64
}

// WriteObject stores a payload of arbitrary size as stripe id, split
// into the stripe's k data blocks — a test convenience over
// SeedStripe. All N nodes must be up.
func (s *Store) WriteObject(ctx context.Context, id uint64, payload []byte) error {
	code, err := erasure.New(s.n, s.k)
	if err != nil {
		return err
	}
	if err := s.SeedStripe(ctx, id, code.Split(payload)); err != nil {
		return err
	}
	objectSizes.Store(objectKey{s, id}, len(payload))
	return nil
}

// ReadObject reads a WriteObject payload back through one quorum read
// per block.
func (s *Store) ReadObject(ctx context.Context, id uint64) ([]byte, error) {
	size, ok := objectSizes.Load(objectKey{s, id})
	if !ok {
		return nil, fmt.Errorf("%w: %d has no object mapping", ErrUnknownStripe, id)
	}
	code, err := erasure.New(s.n, s.k)
	if err != nil {
		return nil, err
	}
	blocks := make([][]byte, s.k)
	for i := range blocks {
		data, _, err := s.ReadBlock(ctx, id, i)
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", i, err)
		}
		blocks[i] = data
	}
	return code.Join(blocks, size.(int))
}
