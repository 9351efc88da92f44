package diskstore

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"trapquorum/client"
	"trapquorum/internal/chunkmeta"
)

// Group commit: batch concurrent mutations into one WAL append + fsync.
//
// The per-mutation durability protocol pays three fsyncs per mutation
// (WAL, chunk file, directory). In group-commit mode the store instead
// runs a single committer goroutine in a leader-commits-followers
// pattern:
//
//   - Stagers (serialised by the node engine) frame their mutation into
//     the current batch, update the in-memory mirror, and receive a
//     wait function. Staging never touches the disk; a full batch
//     (maxBatch) applies back-pressure instead of growing unboundedly.
//   - The committer never waits for followers: the moment it observes
//     staged work it swaps the batch out and writes it to the WAL with
//     one append and one fsync, and whatever stages while that flush is
//     in flight is the next batch — the batching the fsync itself
//     provides. That fsync is the durability point: every waiter of
//     the batch is acknowledged right after it. No timer is armed
//     anywhere on this path, so a lone mutation costs one fsync and
//     nothing else (docs/PERFORMANCE.md §6 has what a 200 µs linger
//     really cost an idle process, and CI keeps timers out).
//   - Applies (chunk-file rewrite via temp + rename) happen after the
//     acknowledgement and skip the per-file and per-directory fsyncs:
//     the WAL intent is durable, so a crash at any point replays the
//     batch. The WAL is therefore not reset per batch — it grows until
//     a checkpoint fsyncs every dirty chunk file plus the directory,
//     after which the log is truncated.
//
// Crash-point semantics are preserved exactly: the intent is durable
// before the mutation is acknowledged, torn WAL tails discard only
// unacknowledged mutations, and any committer error of unknown
// durability poisons the store until a reopen reconverges state through
// recovery. A chunk file torn because its deferred fsync was lost in a
// crash fails its CRC at the next Open, is quarantined — and is then
// made whole by the WAL replay that follows, exactly the
// quarantine-then-replay order recover already runs.
//
// Read visibility: the mirror is updated at stage time so the engine's
// serialised reads observe staged state, but Get gates on the staging
// batch's durability — a reader never observes a mutation that a crash
// could still revoke. See docs/OPERATIONS.md §"Group commit".

const (
	// gcDefaultMaxBatch bounds mutations per batch; stagers beyond it
	// block until the committer drains.
	gcDefaultMaxBatch = 256
	// gcCheckpointBytes triggers a checkpoint once the WAL grows past
	// it: every dirty chunk file is fsynced and the log truncated.
	gcCheckpointBytes = 8 << 20
	// gcCheckpointDirty bounds the dirty-file set between checkpoints,
	// so one checkpoint never fsyncs an unbounded number of files.
	gcCheckpointDirty = 512
	// gcRecycleBytes bounds the batch buffer kept for reuse, so one
	// outsized batch does not pin its memory for the store's lifetime.
	gcRecycleBytes = 4 << 20
)

// WithGroupCommit batches concurrent mutations into one WAL append +
// fsync. maxBatch bounds the mutations per batch (≤ 0 selects the
// default). Staging calls (PutBatched, DeleteBatched, WipeBatched — and
// Put/Delete/Wipe, which stage and wait) must be serialised by the
// caller, as the node engine already does; the returned wait functions
// may be called from any goroutine.
//
// The first parameter was the committer's linger. It is accepted and
// ignored — the committer no longer waits for followers — and is kept
// only because the end-to-end benchmark's frozen sources (bench/
// cluster.go, bench/bench_test.go) call WithGroupCommit(-1, 0); it goes
// with the next change allowed to touch bench/.
func WithGroupCommit(_ time.Duration, maxBatch int) Option {
	if maxBatch <= 0 {
		maxBatch = gcDefaultMaxBatch
	}
	return func(s *Store) {
		s.gcOn = true
		s.gcMaxBatch = maxBatch
	}
}

// Batching reports whether group commit is active (the
// nodeengine.BatchStore gate).
func (s *Store) Batching() bool { return s.gcOn }

// gcBatch is one commit unit: the framed WAL records of its mutations
// and the shared acknowledgement every waiter blocks on.
type gcBatch struct {
	buf   []byte           // framed WAL records, in staging order
	ids   []client.ChunkID // put/delete ids, for pending-map cleanup
	count int
	err   error         // set before done is closed
	done  chan struct{} // closed once the batch's durability is known
}

// newGCBatch opens a batch over recycled (or nil) buffers. The struct
// and its channel are fresh every time: waiters keep them past the
// batch's end.
func newGCBatch(buf []byte, ids []client.ChunkID) *gcBatch {
	return &gcBatch{buf: buf[:0], ids: ids[:0], done: make(chan struct{})}
}

// finish resolves the batch for its waiters. Must be called exactly
// once per batch.
func (b *gcBatch) finish(err error) {
	b.err = err
	close(b.done)
}

// wait blocks until the batch's durability is known.
func (b *gcBatch) wait() error {
	<-b.done
	return b.err
}

// startGroupCommit initialises the committer state and starts the
// committer goroutine. Called at the end of Open when the option is
// set, after recovery has drained the WAL.
func (s *Store) startGroupCommit() {
	s.gcWork = make(chan struct{}, 1)
	s.gcSpace.L = &s.gcMu
	s.gcRead.L = &s.gcMu
	s.gcCur = newGCBatch(nil, nil)
	s.gcEpoch = 1
	s.gcPending = make(map[client.ChunkID]uint64)
	s.gcDirty = make(map[client.ChunkID][]byte)
	s.gcDone = make(chan struct{})
	go s.commitLoop()
}

// gcSignal nudges the committer without blocking.
func (s *Store) gcSignal() {
	select {
	case s.gcWork <- struct{}{}:
	default:
	}
}

// failedErr returns the poison error, if any. The lock matters in
// group mode, where the committer can poison concurrently with
// engine-serialised calls.
func (s *Store) failedErr() error {
	if !s.gcOn {
		return s.failed
	}
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	return s.failed
}

// poisonLocked is poison for group-mode callers holding gcMu: it marks
// the store unusable, fails the current batch's waiters, and wakes
// every blocked stager, reader, and the committer.
func (s *Store) poisonLocked(err error) error {
	if s.failed == nil {
		s.failed = fmt.Errorf("diskstore: unusable after failed mutation (reopen to recover): %w", err)
		cur := s.gcCur
		// Staging after poison fails fast; the fresh batch keeps the
		// non-nil invariant and never gains waiters.
		s.gcCur = newGCBatch(nil, nil)
		cur.finish(s.failed)
		s.gcSpace.Broadcast()
		s.gcRead.Broadcast()
		s.gcSignal()
	}
	return err
}

// stageRecord frames payload into the current batch and returns that
// batch. It applies the maxBatch back-pressure and fails fast on a
// poisoned store. ids lists the chunk ids the record mutates; an empty
// list means a wipe, which gates every subsequent read. Caller must be
// the serialised mutation path.
func (s *Store) stageRecord(payload []byte, ids ...client.ChunkID) (*gcBatch, error) {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	for s.failed == nil && s.gcCur.count >= s.gcMaxBatch {
		s.gcSpace.Wait()
	}
	if s.failed != nil {
		return nil, s.failed
	}
	b := s.gcCur
	b.buf = appendWALFrame(b.buf, payload)
	b.ids = append(b.ids, ids...)
	b.count++
	for _, id := range ids {
		s.gcPending[id] = s.gcEpoch
	}
	if len(ids) == 0 {
		s.gcWipeEpoch = s.gcEpoch
	}
	s.gcSignal()
	return b, nil
}

// PutBatched stages a put into the current batch: the mutation is
// immediately visible to (durability-gated) reads, and the returned
// wait reports once it is durable. Part of nodeengine.BatchStore.
func (s *Store) PutBatched(id client.ChunkID, data []byte, versions []uint64, meta chunkmeta.Meta) (func() error, error) {
	payload := appendPutRecord(s.scratch[:0], id, data, versions, meta)
	s.scratch = payload[:0]
	b, err := s.stageRecord(payload, id)
	if err != nil {
		return nil, err
	}
	delete(s.quar, id)
	if err := s.mem.Put(id, data, versions, meta); err != nil {
		return nil, s.poison(err)
	}
	return b.wait, nil
}

// DeleteBatched stages a delete. Part of nodeengine.BatchStore.
func (s *Store) DeleteBatched(id client.ChunkID) (func() error, error) {
	payload := appendDeleteRecord(s.scratch[:0], id)
	s.scratch = payload[:0]
	b, err := s.stageRecord(payload, id)
	if err != nil {
		return nil, err
	}
	delete(s.quar, id)
	if err := s.mem.Delete(id); err != nil {
		return nil, s.poison(err)
	}
	return b.wait, nil
}

// WipeBatched stages a wipe. Part of nodeengine.BatchStore.
func (s *Store) WipeBatched() (func() error, error) {
	b, err := s.stageRecord([]byte{opWipe})
	if err != nil {
		return nil, err
	}
	for id := range s.quar {
		delete(s.quar, id)
	}
	if err := s.mem.Wipe(); err != nil {
		return nil, s.poison(err)
	}
	return b.wait, nil
}

// gateRead blocks until every staged mutation of id (and any staged
// wipe) is durable, so a reader never observes state a crash could
// still revoke. Returns immediately when nothing is pending on id.
func (s *Store) gateRead(id client.ChunkID) error {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	for s.failed == nil {
		target := s.gcWipeEpoch
		if ep, ok := s.gcPending[id]; ok && ep > target {
			target = ep
		}
		if target <= s.gcDurable {
			return nil
		}
		s.gcRead.Wait()
	}
	return s.failed
}

// commitLoop is the committer: the moment it observes staged work it
// swaps the batch out, makes it durable with one WAL append + fsync,
// acknowledges the waiters, folds the batch into the write-back cache,
// and checkpoints when the WAL grows past its bound (and finally at
// shutdown). It never waits for followers: what stages during a flush
// is the next batch.
func (s *Store) commitLoop() {
	defer close(s.gcDone)
	// The last applied batch's buffers, handed to the batch the next
	// swap opens: two sets ping-pong between staging and flushing
	// instead of every batch growing its own from nil.
	var spareBuf []byte
	var spareIDs []client.ChunkID
	for {
		s.gcMu.Lock()
		for s.gcCur.count == 0 && !s.gcClosed && s.failed == nil {
			s.gcMu.Unlock()
			<-s.gcWork
			s.gcMu.Lock()
		}
		if s.failed != nil {
			s.gcMu.Unlock()
			return
		}
		if s.gcClosed && s.gcCur.count == 0 {
			s.gcMu.Unlock()
			// Clean shutdown: leave the directory fully durable and
			// the WAL empty.
			if s.gcWalBytes > 0 {
				if err := s.checkpoint(); err != nil {
					s.gcMu.Lock()
					s.poisonLocked(err)
					s.gcMu.Unlock()
				}
			}
			return
		}
		batch := s.gcCur
		epoch := s.gcEpoch
		s.gcCur = newGCBatch(spareBuf, spareIDs)
		spareBuf, spareIDs = nil, nil
		s.gcEpoch++
		s.gcSpace.Broadcast()
		s.gcMu.Unlock()

		if s.commitGate != nil {
			s.commitGate()
		}

		// Durability point: one append, one fsync for the whole batch.
		if err := s.walAppendRaw(batch.buf); err != nil {
			s.gcMu.Lock()
			s.poisonLocked(err)
			failed := s.failed
			s.gcMu.Unlock()
			batch.finish(failed)
			return
		}
		s.gcWalBytes += int64(len(batch.buf))

		s.gcMu.Lock()
		s.gcDurable = epoch
		for _, id := range batch.ids {
			if s.gcPending[id] == epoch {
				delete(s.gcPending, id)
			}
		}
		s.gcRead.Broadcast()
		if crash := s.crashAfterWAL; crash != nil {
			// Test hook: the power cut between append and apply. The
			// intent is durable, but — exactly like the per-mutation
			// path — the batch is reported failed with unknown
			// durability and the store poisons until reopen.
			s.poisonLocked(crash)
			failed := s.failed
			s.gcMu.Unlock()
			batch.finish(failed)
			return
		}
		s.gcMu.Unlock()
		batch.finish(nil)

		if err := s.applyBatch(batch); err != nil {
			s.gcMu.Lock()
			s.poisonLocked(err)
			s.gcMu.Unlock()
			return
		}
		// Nothing references the batch's buffers any more (waiters hold
		// only done and err): the next swap opens its batch over them.
		if cap(batch.buf) <= gcRecycleBytes {
			spareBuf, spareIDs = batch.buf, batch.ids
		}
		if s.gcWalBytes >= gcCheckpointBytes || len(s.gcDirty) >= gcCheckpointDirty {
			if err := s.checkpoint(); err != nil {
				s.gcMu.Lock()
				s.poisonLocked(err)
				s.gcMu.Unlock()
				return
			}
		}
	}
}

// applyBatch folds the batch's framed records into the committer's
// write-back cache: only the latest record per chunk is kept, so the
// file writes the checkpoint eventually performs are coalesced across
// however many batches overwrote the same chunk. No file is touched
// here (a wipe is the exception — it clears the directory on the
// spot), which keeps the commit cycle at one WAL append + fsync. The
// in-memory mirror was already updated at stage time and is not
// touched either — the committer must not race engine-serialised
// reads.
func (s *Store) applyBatch(b *gcBatch) error {
	raw := b.buf
	for len(raw) > 0 {
		payload, rest, err := nextWALFrame(raw)
		if err != nil {
			return fmt.Errorf("diskstore: group batch corrupt in memory: %w", err)
		}
		if err := s.applyRecordCache(payload); err != nil {
			return err
		}
		raw = rest
	}
	return nil
}

// applyRecordCache folds one record into the write-back cache — the
// group-commit twin of replayRecord. Put records are copied (the batch
// buffer is recycled after the batch) and only their id is read here;
// the checkpoint decodes the rest. A delete leaves a len-0 tombstone
// so the checkpoint removes the file.
func (s *Store) applyRecordCache(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("%w: empty wal record", ErrCorrupt)
	}
	switch payload[0] {
	case opPut, opPut2:
		id, err := putRecordID(payload)
		if err != nil {
			return fmt.Errorf("%w: wal put record: %v", ErrCorrupt, err)
		}
		s.gcDirty[id] = append(s.gcDirty[id][:0], payload...)
		return nil
	case opDelete:
		id, err := decodeDeleteRecord(payload)
		if err != nil {
			return fmt.Errorf("%w: wal delete record: %v", ErrCorrupt, err)
		}
		s.gcDirty[id] = s.gcDirty[id][:0]
		return nil
	case opWipe:
		if err := s.applyWipeFiles(); err != nil {
			return err
		}
		// Everything dirtied before the wipe is gone; the removals are
		// made durable by the wipe's own directory sync.
		for id := range s.gcDirty {
			delete(s.gcDirty, id)
		}
		return s.syncDir(s.chunksDir)
	default:
		return fmt.Errorf("%w: wal op %d", ErrCorrupt, payload[0])
	}
}

// checkpoint drains the write-back cache — write each dirty chunk file
// (temp + rename) or remove tombstoned ones, fsync the writes and the
// directory — and truncates the WAL, whose cover the files no longer
// need.
func (s *Store) checkpoint() error {
	for id, rec := range s.gcDirty {
		if len(rec) == 0 {
			if err := s.applyDeleteFile(id); err != nil {
				return err
			}
			continue
		}
		_, data, versions, meta, err := decodePutRecord(rec)
		if err != nil {
			return fmt.Errorf("%w: checkpoint record: %v", ErrCorrupt, err)
		}
		if err := s.applyPutFile(id, data, versions, meta, false); err != nil {
			return err
		}
	}
	if s.sync {
		for id, rec := range s.gcDirty {
			if len(rec) == 0 {
				continue // removal: the directory sync below covers it
			}
			f, err := os.Open(filepath.Join(s.chunksDir, chunkFileName(id)))
			if err != nil {
				return fmt.Errorf("diskstore: checkpoint: %w", err)
			}
			serr := f.Sync()
			cerr := f.Close()
			if serr != nil {
				return fmt.Errorf("diskstore: checkpoint sync: %w", serr)
			}
			if cerr != nil {
				return fmt.Errorf("diskstore: checkpoint: %w", cerr)
			}
		}
		if err := s.syncDir(s.chunksDir); err != nil {
			return err
		}
	}
	if err := s.walReset(); err != nil {
		return err
	}
	s.gcWalBytes = 0
	for id := range s.gcDirty {
		delete(s.gcDirty, id)
	}
	return nil
}

// stopGroupCommit drains and stops the committer: the final batch is
// committed and applied, a last checkpoint truncates the WAL, and the
// goroutine exits. Called by Close.
func (s *Store) stopGroupCommit() {
	s.gcMu.Lock()
	s.gcClosed = true
	s.gcMu.Unlock()
	s.gcSignal()
	<-s.gcDone
}
