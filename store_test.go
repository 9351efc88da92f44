package trapquorum

import (
	"context"
	"errors"
	"testing"
)

// TestStoreUnknownStripeIsTheFleets: Store's block operations on an id
// never seeded return the fleet's unknown-stripe error, which the
// public ErrUnknownStripe matches.
func TestStoreUnknownStripeIsTheFleets(t *testing.T) {
	ctx := context.Background()
	s, err := OpenStore(ctx, WithCode(9, 6), WithTrapezoid(2, 1, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, err := s.fleet.Stripe(42); !errors.Is(err, ErrUnknownStripe) {
		t.Fatalf("Fleet.Stripe: err = %v, want ErrUnknownStripe", err)
	}
	if _, _, err := s.ReadBlock(ctx, 42, 0); !errors.Is(err, ErrUnknownStripe) {
		t.Fatalf("ReadBlock: err = %v, want ErrUnknownStripe", err)
	}
	if err := s.WriteBlock(ctx, 42, 0, []byte{1}); !errors.Is(err, ErrUnknownStripe) {
		t.Fatalf("WriteBlock: err = %v, want ErrUnknownStripe", err)
	}
	if _, err := s.ScrubStripe(ctx, 42); !errors.Is(err, ErrUnknownStripe) {
		t.Fatalf("ScrubStripe: err = %v, want ErrUnknownStripe", err)
	}
}
