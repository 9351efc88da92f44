package service

import "trapquorum/internal/core"

// objectMeta records where an object lives: its stripes and the one
// epoch that placed them all (a migration cuts an object over whole).
type objectMeta struct {
	size    int
	stripes []uint64
	ec      *epochCfg
}

// placedStripe is one entry of the stripe table: the stripe's handle
// and the epoch — hence the protocol instance — it was placed in.
type placedStripe struct {
	core.Stripe
	ec *epochCfg
}

// directory is one tenant's namespace: key → object, and the logical
// bytes the objects hold.
type directory struct {
	objects   map[string]*objectMeta
	usedBytes int64
}

// catalog is the fleet's placement metadata — the state without which
// every shard is garbage: each tenant's directory, the stripe table
// with the stripe-id allocator, and the placement epochs. It changes
// only through apply of a mutation, a plain value that names epochs by
// id and stripes by handle, so the values applied to a catalog replay
// into a fresh one to the same state: a durable directory is a log of
// them plus a snapshot. What a restart may lose — object locks,
// in-flight Put counts, quota reservations, the migration queue —
// stays outside. Fleet.mu guards it.
type catalog struct {
	dirs       map[string]*directory
	stripes    map[uint64]placedStripe // every registered stripe
	nextStripe uint64                  // the allocator: every id below is taken
	epochs     map[uint64]*epochCfg
	cur        *epochCfg // the epoch new objects are placed in
	retired    uint64    // highest epoch fenced off at the nodes

	build   func(id uint64, spec ReconfigSpec) (*epochCfg, error) // makes an installed epoch
	observe func(mutation)                                        // when set, sees each mutation applied, in order
}

func newCatalog(build func(uint64, ReconfigSpec) (*epochCfg, error)) catalog {
	return catalog{dirs: make(map[string]*directory), stripes: make(map[uint64]placedStripe), nextStripe: 1,
		epochs: make(map[uint64]*epochCfg), build: build}
}

// mutation is one change to the catalog: one of the values below.
type mutation any

type (
	// commitObject maps the tenant's key to stripes seeded in the epoch.
	commitObject struct {
		tenant, key string
		size        int
		epoch       uint64
		stripes     []core.Stripe
	}
	cutOver      commitObject                 // the key moves to stripes seeded in the epoch; its old ones go
	removeObject struct{ tenant, key string } // the key and its stripes go
	allocStripes struct{ next uint64 }        // every stripe id below next is taken
	retireEpochs struct{ through uint64 }     // every epoch up to through is fenced
	// seedStripe enters a caller-named stripe into the table.
	seedStripe struct {
		epoch  uint64
		stripe core.Stripe
	}
	// installEpoch builds epoch id of the spec, its Placement the
	// epoch's own strategy, and places new objects in it. The first
	// epoch installed retires every id below its own.
	installEpoch struct {
		id   uint64
		spec ReconfigSpec
	}
)

// apply makes one change and returns the stripes it took out of the
// table — a removed or cut-over object's old ones, whose chunks the
// caller then drops from their nodes. Only installEpoch can fail — its
// epoch cannot be built — and then nothing changes. Caller holds
// Fleet.mu.
func (c *catalog) apply(m mutation) (dropped []core.Stripe, err error) {
	switch m := m.(type) {
	case commitObject:
		d := c.dir(m.tenant)
		d.objects[m.key] = &objectMeta{size: m.size, stripes: c.register(m.epoch, m.stripes), ec: c.epochs[m.epoch]}
		d.usedBytes += int64(m.size)
	case removeObject:
		d := c.dirs[m.tenant]
		o := d.objects[m.key]
		delete(d.objects, m.key)
		d.usedBytes -= int64(o.size)
		dropped = c.unregister(o.stripes)
	case cutOver:
		o := c.dirs[m.tenant].objects[m.key]
		dropped = c.unregister(o.stripes)
		o.stripes, o.ec = c.register(m.epoch, m.stripes), c.epochs[m.epoch]
	case seedStripe:
		c.register(m.epoch, []core.Stripe{m.stripe})
	case allocStripes:
		c.nextStripe = max(c.nextStripe, m.next)
	case installEpoch:
		ec, err := c.build(m.id, m.spec)
		if err != nil {
			return nil, err
		}
		if c.cur == nil && m.id > 0 {
			c.retired = m.id - 1
		}
		c.epochs[m.id], c.cur = ec, ec
	case retireEpochs:
		c.retired = max(c.retired, m.through)
	}
	if c.observe != nil {
		c.observe(m)
	}
	return dropped, nil
}

// dir returns the tenant's namespace, created empty on first use: an
// empty namespace and none are the same state.
func (c *catalog) dir(tenant string) *directory {
	d := c.dirs[tenant]
	if d == nil {
		d = &directory{objects: make(map[string]*objectMeta)}
		c.dirs[tenant] = d
	}
	return d
}

// register enters the stripes into the table in the epoch and returns
// their ids in order — an object's stripe list.
func (c *catalog) register(epoch uint64, stripes []core.Stripe) []uint64 {
	ids := make([]uint64, len(stripes))
	for i, st := range stripes {
		c.stripes[st.ID] = placedStripe{st, c.epochs[epoch]}
		ids[i] = st.ID
	}
	return ids
}

// unregister takes the stripes out of the table and returns their
// handles.
func (c *catalog) unregister(ids []uint64) []core.Stripe {
	out := make([]core.Stripe, len(ids))
	for i, id := range ids {
		out[i] = c.stripes[id].Stripe
		delete(c.stripes, id)
	}
	return out
}

// outside lists every object not in epoch ec, in tenant then key order:
// the work a migration into ec has left, and — from a fresh scan — its
// resume path after a coordinator lost the queue.
func (c *catalog) outside(ec *epochCfg) []objKey {
	var out []objKey
	for _, tenant := range sortedKeys(c.dirs) {
		objects := c.dirs[tenant].objects
		for _, key := range sortedKeys(objects) {
			if objects[key].ec != ec {
				out = append(out, objKey{tenant, key})
			}
		}
	}
	return out
}
