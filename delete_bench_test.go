package trapquorum_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"trapquorum"
)

// BenchmarkDeleteObject times the Delete of a 1-stripe and a 4-stripe
// object on nine loopback TCP nodes over fsyncing diskstores in a temp
// dir: the (9,6) a=2 b=1 h=1 w=2 store with 4 KiB blocks the end-to-end
// benchmark runs. The Put that creates each object runs with the timer
// stopped. A Delete sends each node one removal request however many
// stripes the object has, so the two cases should cost about the same.
func BenchmarkDeleteObject(b *testing.B) {
	const bs = 4 << 10
	ctx := context.Background()
	store, err := trapquorum.Open(ctx,
		trapquorum.WithBackend(trapquorum.NewNetBackend(fleetAddrs(bootFleet(b, 9, true)))),
		trapquorum.WithCode(9, 6),
		trapquorum.WithTrapezoid(2, 1, 1, 2),
		trapquorum.WithBlockSize(bs))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { store.Close() })
	for _, stripes := range []int{1, 4} {
		payload := bytes.Repeat([]byte{0x5c}, stripes*6*bs)
		b.Run(fmt.Sprintf("stripes=%d", stripes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := store.Put(ctx, "obj", payload); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := store.Delete(ctx, "obj"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
