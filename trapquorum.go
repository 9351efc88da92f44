// Package trapquorum is a storage library implementing the Trapezoid
// Quorum Protocol for erasure-coded data (TRAP-ERC) from Relaza, Jorda
// and M'zoughi, "Trapezoid Quorum Protocol Dedicated to Erasure
// Resilient Coding Based Schemes", IPDPSW 2015.
//
// # The v1 surface
//
// The headline type is ObjectStore: a keyed erasure-coded object store
// spreading stripes across a cluster by a placement strategy, with
// strict per-block consistency through the trapezoid quorum protocol.
// Every operation takes a context.Context and can be bounded or
// cancelled mid-quorum:
//
//	store, err := trapquorum.Open(ctx,
//	        trapquorum.WithCode(15, 8),
//	        trapquorum.WithTrapezoid(2, 3, 1, 3),
//	        trapquorum.WithBlockSize(4096),
//	        trapquorum.WithPlacement(ring))
//	if err != nil { ... }
//	defer store.Close()
//	err  = store.Put(ctx, "vm-alpha.img", image)
//	data, err := store.Get(ctx, "vm-alpha.img")
//	err  = store.WriteAt(ctx, "vm-alpha.img", 512, patch)
//
// The low-level single-stripe Store (via OpenStore) exposes the
// protocol directly — SeedStripe, WriteBlock, ReadBlock — for
// callers managing stripes themselves and for protocol experiments.
//
// Both run on any backend implementing the client.NodeClient transport
// contract; the built-in SimBackend provides the in-process simulated
// fail-stop cluster the paper's evaluation assumes.
//
// # Protocol
//
// A stripe keeps k original data blocks plus n−k parity blocks of a
// systematic (n,k) MDS erasure code, spread over n storage nodes.
// Strict consistency is maintained by the trapezoid quorum protocol:
// writes must reach w_l nodes on every level of a logical trapezoid
// laid over the block's data node and the parity nodes; reads collect
// versions from s_l−w_l+1 nodes of some level — guaranteed to overlap
// every write — then either read the data node directly or decode
// from k consistent shards.
//
// Compared to keeping n−k+1 full replicas, the erasure-coded layout
// stores n/k block-sizes instead of n−k+1 (a 4–8× saving at practical
// parameters) at the same write availability and a read availability
// that is indistinguishable for node availabilities above 0.8.
package trapquorum

import (
	"errors"

	"trapquorum/client"
	"trapquorum/internal/core"
	"trapquorum/internal/service"
	"trapquorum/internal/trapezoid"
)

// Re-exported protocol errors; test with errors.Is. Context aborts
// surface as context.Canceled / context.DeadlineExceeded, reachable
// through errors.Is as well.
var (
	// ErrWriteFailed reports that some trapezoid level could not reach
	// its write threshold w_l.
	ErrWriteFailed = core.ErrWriteFailed
	// ErrNotReadable reports that no level reached its version-check
	// threshold, or no k consistent shards were available to decode.
	ErrNotReadable = core.ErrNotReadable
	// ErrUnknownStripe reports an operation on a stripe id that was
	// never written.
	ErrUnknownStripe = core.ErrUnknownStripe
	// ErrUnknownKey reports an ObjectStore operation on a key that
	// does not exist.
	ErrUnknownKey = service.ErrUnknownKey
	// ErrBadRange reports an ObjectStore range operation outside the
	// object's extent.
	ErrBadRange = service.ErrBadRange
	// ErrExists reports a Put on a key that already exists.
	ErrExists = service.ErrExists
	// ErrOverloaded is explicit backpressure from a bounded queue: the
	// serving side (typically the gateway tier's worker pool or a
	// connection's in-flight window) refused to queue the request
	// instead of letting queues grow without bound. The request was
	// not executed — back off and retry. Carried by both wire codecs
	// as a dedicated status, so errors.Is works across the network.
	ErrOverloaded = client.ErrOverloaded
	// ErrQuotaExceeded reports a mutation that would push a tenant's
	// namespace past its configured object-count or byte quota (see
	// the gateway tier's per-tenant quotas). The mutation was not
	// applied. Carried by both wire codecs as a dedicated status.
	ErrQuotaExceeded = client.ErrQuotaExceeded
	// ErrCorrupt reports shard content that failed cross-checksum
	// verification. Reads never return it while k clean shards remain
	// — corrupt shards are discarded and the block re-decoded from
	// survivors — so seeing it from a read means corruption exceeded
	// the code's tolerance. Node engines also return it for chunks
	// whose on-disk CRC failed (quarantined files). Carried by both
	// wire codecs as a dedicated status.
	ErrCorrupt = client.ErrCorrupt
)

// ErrNotSupported reports an operation the configured backend cannot
// perform — fault injection (CrashNode, RestartNode, AliveNodes,
// WipeNode) on a backend that does not implement FaultInjector, such
// as NetBackend. Test with errors.Is.
var ErrNotSupported = errors.New("trapquorum: operation not supported by backend")

// OpError is the typed error every failed quorum operation returns:
// it carries the operation name and the stripe/block/level/node where
// the failure occurred, and unwraps to the sentinel cause —
// ErrWriteFailed, ErrNotReadable, context.Canceled,
// context.DeadlineExceeded — so errors.Is and errors.As both work:
//
//	var op *trapquorum.OpError
//	if errors.As(err, &op) { log.Printf("stripe %d level %d", op.Stripe, op.Level) }
//	if errors.Is(err, context.DeadlineExceeded) { retryLater() }
type OpError = core.OpError

// Metrics is a snapshot of store-level counters: the protocol
// counters (DirectReads and DecodeReads mirror the P1/P2
// decomposition of the paper's equation 13) plus, when WithSelfHeal
// is enabled, the failure detector's and repair orchestrator's
// counters. Every counter is cumulative and monotone over the
// store's lifetime; self-heal counters stay zero on stores opened
// without WithSelfHeal.
type Metrics struct {
	// Writes counts committed quorum writes.
	Writes int64
	// FailedWrites counts writes that could not reach their quorum.
	FailedWrites int64
	// DirectReads counts reads served by the block's data node (the
	// paper's P1 path).
	DirectReads int64
	// DecodeReads counts reads decoded from k consistent shards (the
	// paper's P2 path).
	DecodeReads int64
	// FailedReads counts reads no level could serve.
	FailedReads int64
	// Rollbacks counts failed writes whose partial updates were
	// rolled back.
	Rollbacks int64
	// Repairs counts chunk rebuilds that succeeded, whoever asked for
	// them (manual RepairNode calls and the self-heal orchestrator
	// both land here).
	Repairs int64
	// HedgedRPCs counts read-path RPCs re-issued by hedging.
	HedgedRPCs int64
	// CorruptShards counts shard-level corruption observations made by
	// the verified read, repair and scrub paths: chunks whose bytes
	// disagree with the cross-checksum record majority, and nodes
	// answering ErrCorrupt. One shard caught by several paths counts
	// once per observation.
	CorruptShards int64
	// OneRoundWrites counts committed writes that skipped Algorithm 1's
	// initial read: the coordinator had committed the block last and
	// still held what it wrote.
	OneRoundWrites int64
	// CacheFallbacks counts one-round write attempts that failed — the
	// block had moved on behind the coordinator, or the quorum was
	// short — and fell back to the read-then-update write. A fallback
	// is not a failed write: the fallback's outcome counts in Writes or
	// FailedWrites.
	CacheFallbacks int64

	// Probes counts liveness probes issued by the health monitor.
	Probes int64
	// ProbeFailures counts probes that returned an error.
	ProbeFailures int64
	// Suspicions counts up→suspect transitions.
	Suspicions int64
	// DownEvents counts transitions into the down state.
	DownEvents int64
	// Recoveries counts repairing→up transitions — nodes restored to
	// full redundancy by the orchestrator.
	Recoveries int64
	// CorruptReports counts corruption observations delivered to the
	// health monitor (per-node counts are in NodeHealth).
	CorruptReports int64
	// CorruptEvents counts transitions into the corrupt state,
	// re-arms of a still-corrupt node included.
	CorruptEvents int64

	// AutoRepairs counts chunk repairs executed by the self-heal
	// orchestrator that succeeded.
	AutoRepairs int64
	// AutoRepairFailures counts orchestrator repairs that failed (they
	// are retried).
	AutoRepairFailures int64
	// ScrubPasses counts completed anti-entropy scrub passes.
	ScrubPasses int64
	// ScrubStripes counts stripes audited across all scrub passes.
	ScrubStripes int64
	// ScrubDegraded counts repair tasks the scrubber found.
	ScrubDegraded int64
	// Brownouts counts transitions into the brownout state (node
	// degraded — answering, but slowly; see SelfHeal.BrownoutLatency).
	Brownouts int64

	// The transport resilience counters below are populated when the
	// backend implements ResilienceReporter (NetBackend with a
	// Resilience policy does; the simulator does not — fault injection
	// there is in-process and needs no breakers).

	// BreakerOpens counts closed→open transitions of per-node circuit
	// breakers, across all node links.
	BreakerOpens int64
	// BreakerFastFails counts operations failed locally because the
	// node's breaker was open — load the fleet was spared.
	BreakerFastFails int64
	// TransportRetries counts replay-safe operations re-sent by the
	// transport after a transient failure.
	TransportRetries int64
	// RetryBudgetSpent counts retry-budget tokens consumed; compare
	// with TransportRetries (equal unless budgets were swapped
	// mid-run).
	RetryBudgetSpent int64
	// RetryBudgetDenied counts retries refused because the budget was
	// exhausted — the backstop against retry storms. A nonzero value
	// under steady load means the fleet is failing faster than the
	// budget refills; fix the network, not the budget.
	RetryBudgetDenied int64
}

// ScrubReport is the stripe audit result of a scrub: the freshest
// consistent version vector plus the stale/ahead/unreachable shard
// classification and byte-level parity verification.
type ScrubReport = core.ScrubReport

// Shapes lists every valid trapezoid shape (a, b, h triple with
// h ≤ maxH) for an (n,k) code, to explore the design space.
func Shapes(n, k, maxH int) ([][3]int, error) {
	if k < 1 || n < k {
		return nil, errors.New("trapquorum: need 1 <= k <= n")
	}
	var out [][3]int
	for _, s := range trapezoid.EnumerateShapes(n-k+1, maxH) {
		out = append(out, [3]int{s.A, s.B, s.H})
	}
	return out, nil
}
