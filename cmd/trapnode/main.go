// Command trapnode runs one TRAP-ERC storage node as a network
// daemon: the transport-neutral node engine (internal/nodeengine)
// served over the TCP node protocol (transport/tcp), on either a
// durable per-node directory (internal/diskstore) or process memory.
//
// A cluster is N of these daemons plus any client process opening a
// trapquorum store over a NetBackend:
//
//	trapnode -addr :7420 -dir /var/lib/trapnode    # one per node
//	...
//	backend := trapquorum.NewNetBackend(addrs)     # in the client
//	store, err := trapquorum.Open(ctx, trapquorum.WithBackend(backend))
//
// The daemon exits cleanly on SIGINT/SIGTERM; with -dir, every
// acknowledged mutation is already durable (write-ahead log + atomic
// rename + fsync), so a hard kill loses nothing that was acknowledged.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"trapquorum/internal/diskstore"
	"trapquorum/internal/memstore"
	"trapquorum/internal/nodeengine"
	"trapquorum/transport/tcp"
)

type config struct {
	addr         string
	dir          string
	noFsync      bool
	groupCommit  bool
	gcMaxBatch   int
	scanInterval time.Duration
	ioTimeout    time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":7420", "TCP address to listen on")
	flag.StringVar(&cfg.dir, "dir", "", "durable storage directory (empty: keep chunks in memory)")
	flag.BoolVar(&cfg.noFsync, "no-fsync", false,
		"skip fsync on mutations (faster, loses crash durability); before reaching for this, see -group-commit, which keeps full durability and amortises the fsync instead — docs/OPERATIONS.md §\"Running without fsync\" derives exactly what each mode risks")
	flag.BoolVar(&cfg.groupCommit, "group-commit", false,
		"commit mutations through one WAL append + fsync per batch (needs -dir): every acknowledged mutation is still durable, a lone mutation pays one fsync where the default path pays three, and mutations that arrive while a flush is in flight share the next one — see docs/OPERATIONS.md §\"Group commit\"")
	flag.IntVar(&cfg.gcMaxBatch, "gc-max-batch", 0,
		"group commit: max mutations per batch before stagers block (0 selects the built-in default; needs -group-commit)")
	flag.DurationVar(&cfg.scanInterval, "scan-interval", 0,
		"periodic at-rest scan of the durable store: chunk files failing their CRC are quarantined so the cluster's scrub finds cold bit-rot without a client read (0 disables; needs -dir)")
	flag.DurationVar(&cfg.ioTimeout, "io-timeout", 30*time.Second,
		"per-connection IO deadline: a peer that starts a request frame or stalls reading a response gets this long to make progress before the connection is cut (slow-loris guard; 0 disables)")
	flag.Parse()

	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("trapnode: %v, shutting down", s)
		close(stop)
	}()

	if err := run(cfg, stop, nil); err != nil {
		log.Fatalf("trapnode: %v", err)
	}
}

// run builds the store + engine + server stack and serves until stop
// closes or the listener fails. started, when non-nil, receives the
// bound address once the node is accepting connections (tests listen
// on :0).
func run(cfg config, stop <-chan struct{}, started func(net.Addr)) error {
	var (
		store nodeengine.ChunkStore
		desc  string
	)
	if cfg.dir == "" {
		if cfg.groupCommit {
			return fmt.Errorf("trapnode: -group-commit needs -dir (the in-memory store has no fsync to amortise)")
		}
		store = memstore.New()
		desc = "in-memory store"
	} else {
		opts := []diskstore.Option{diskstore.WithSyncWrites(!cfg.noFsync)}
		if cfg.groupCommit {
			opts = append(opts, diskstore.WithGroupCommit(0, cfg.gcMaxBatch))
		}
		ds, err := diskstore.Open(cfg.dir, opts...)
		if err != nil {
			return err
		}
		store = ds
		desc = fmt.Sprintf("durable store in %s", cfg.dir)
		if cfg.groupCommit {
			desc += ", group commit"
		}
	}
	engine := nodeengine.New(store, nodeengine.WithName("trapnode "+cfg.addr))
	defer engine.Close()

	if cfg.scanInterval > 0 {
		if cfg.dir == "" {
			return fmt.Errorf("trapnode: -scan-interval needs -dir (the in-memory store has no at-rest state to scan)")
		}
		scanDone := make(chan struct{})
		defer close(scanDone)
		go scanLoop(engine, cfg.scanInterval, scanDone)
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	srv := tcp.NewServer(engine, tcp.WithServerIOTimeout(cfg.ioTimeout))
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	log.Printf("trapnode: serving on %s (%s)", ln.Addr(), desc)
	if started != nil {
		started(ln.Addr())
	}

	select {
	case <-stop:
		if err := srv.Close(); err != nil {
			return err
		}
		return <-serveErr
	case err := <-serveErr:
		srv.Close()
		return err
	}
}

// scanLoop periodically re-reads every chunk file from disk and
// quarantines the ones failing their CRC: subsequent reads of a
// quarantined chunk answer ErrCorrupt, which the cluster's verified
// read path and scrubber treat as a corruption observation and heal —
// so cold bit-rot on a rarely-read chunk is found and repaired without
// waiting for a client to stumble over it.
func scanLoop(engine *nodeengine.Engine, interval time.Duration, done <-chan struct{}) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
		}
		quarantined, err := engine.VerifyStore(context.Background())
		switch {
		case err != nil:
			log.Printf("trapnode: at-rest scan failed: %v", err)
		case len(quarantined) > 0:
			log.Printf("trapnode: at-rest scan quarantined %d chunk(s): %v", len(quarantined), quarantined)
		}
	}
}
