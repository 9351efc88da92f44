package diskstore

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"trapquorum/client"
	"trapquorum/internal/chunkmeta"
)

// Group commit: every mutation reaches the disk through one WAL append
// + fsync per batch.
//
// A single committer goroutine runs a leader-commits-followers cycle:
//
//   - Stagers (serialised by the node engine) frame their mutation into
//     the current batch, update the in-memory mirror, and receive a
//     wait function. Staging never touches the disk; a full batch
//     (gcMaxBatch) applies back-pressure instead of growing unboundedly.
//   - The committer never waits for followers: the moment it observes
//     staged work it swaps the batch out and writes it to the WAL with
//     one append and one fsync, and whatever stages while that flush is
//     in flight is the next batch — the batching the fsync itself
//     provides. That fsync is the durability point: every waiter of
//     the batch is acknowledged right after it. No timer is armed
//     anywhere on this path, so a lone mutation costs one fsync and
//     nothing else (docs/PERFORMANCE.md §6 has what a 200 µs linger
//     really cost an idle process, and CI keeps timers out).
//   - After the acknowledgement the batch is folded into a write-back
//     cache, latest record per chunk; no chunk file is written then.
//     The WAL therefore grows until a checkpoint — when it passes its
//     bounds, when Scan asks, and at Close — writes every cached chunk
//     file, fsyncs them and the directory, and only then truncates the
//     log. Open's recovery folds the log through the same function and
//     runs the same checkpoint.
//
// Crash-point semantics: the intent is durable before the mutation is
// acknowledged, a torn WAL tail discards only unacknowledged mutations,
// and any committer error of unknown durability poisons the store
// until a reopen reconverges state through recovery. A chunk file torn
// because its checkpoint fsync was lost in a crash is rewritten from
// the WAL by the replay, which runs before the chunk files are loaded.
//
// Read visibility: the mirror is updated at stage time so the engine's
// serialised reads observe staged state, but Get gates on the staging
// batch's durability — a reader never observes a mutation that a crash
// could still revoke. See docs/OPERATIONS.md §6.

const (
	// gcMaxBatch bounds mutations per batch; stagers beyond it block
	// until the committer drains.
	gcMaxBatch = 256
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

// WithGroupCommit is a no-op: group commit is the store's only write
// path. It is kept only because the end-to-end benchmark's frozen
// sources (bench/cluster.go, bench/bench_test.go) call
// WithGroupCommit(-1, 0); it goes with the next change allowed to touch
// bench/.
func WithGroupCommit(time.Duration, int) Option { return func(*Store) {} }

// Batching reports true: every mutation stages into a group-commit
// batch (the nodeengine.BatchStore gate).
func (s *Store) Batching() bool { return true }

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

// gcSignal nudges the committer without blocking.
func (s *Store) gcSignal() {
	select {
	case s.gcWork <- struct{}{}:
	default:
	}
}

// failedErr returns the poison error, if any.
func (s *Store) failedErr() error {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	return s.failed
}

// poison marks the store unusable after an error of unknown durability
// (a torn WAL append, a checkpoint that stopped half way): the disk and
// the mirror may now disagree, and only a reopen's recovery can
// reconverge them. It returns err for the caller to surface.
func (s *Store) poison(err error) error {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	return s.poisonLocked(err)
}

// poisonLocked is poison for callers holding gcMu: it marks the store
// unusable, fails the current batch's waiters, and wakes every blocked
// stager, reader, checkpoint requester, and the committer.
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
// batch. It applies the gcMaxBatch back-pressure and fails fast on a
// poisoned store. ids lists the chunk ids the record mutates; an empty
// list means a wipe, which gates every subsequent read. Caller must be
// the serialised mutation path.
func (s *Store) stageRecord(payload []byte, ids ...client.ChunkID) (*gcBatch, error) {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	for s.failed == nil && s.gcCur.count >= gcMaxBatch {
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

// checkpointNow asks the committer for a checkpoint covering every
// mutation staged so far and waits for it: on return the chunk files
// hold the latest durable state and the WAL is empty. Caller must be
// the serialised mutation path, so nothing stages behind the request.
func (s *Store) checkpointNow() error {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	s.gcCkptWant++
	want := s.gcCkptWant
	s.gcSignal()
	for s.failed == nil && s.gcCkptDone < want {
		s.gcRead.Wait()
	}
	return s.failed
}

// commitLoop is the committer: the moment it observes staged work it
// swaps the batch out, makes it durable with one WAL append + fsync,
// acknowledges the waiters, folds the batch into the write-back cache,
// and checkpoints when the WAL grows past its bounds. Once nothing is
// staged it answers checkpoint requests — Scan's, and Close's, which
// ends the loop. It never waits for followers: what stages during a
// flush is the next batch.
func (s *Store) commitLoop() {
	defer close(s.gcDone)
	// The last applied batch's buffers, handed to the batch the next
	// swap opens: two sets ping-pong between staging and flushing
	// instead of every batch growing its own from nil.
	var spareBuf []byte
	var spareIDs []client.ChunkID
	for {
		s.gcMu.Lock()
		for s.gcCur.count == 0 && !s.gcClosed && s.gcCkptDone == s.gcCkptWant && s.failed == nil {
			s.gcMu.Unlock()
			<-s.gcWork
			s.gcMu.Lock()
		}
		if s.failed != nil {
			s.gcMu.Unlock()
			return
		}
		if s.gcCur.count == 0 {
			// Idle with a checkpoint requested: every batch staged before
			// the request is committed and folded, so this one covers it.
			closed, want := s.gcClosed, s.gcCkptWant
			s.gcMu.Unlock()
			err := s.checkpoint()
			s.gcMu.Lock()
			if err != nil {
				s.poisonLocked(err)
			}
			s.gcCkptDone = want
			s.gcRead.Broadcast()
			s.gcMu.Unlock()
			if closed || err != nil {
				return
			}
			continue
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
			// intent is durable, but the batch is reported failed with
			// unknown durability and the store poisons until reopen.
			s.poisonLocked(crash)
			failed := s.failed
			s.gcMu.Unlock()
			batch.finish(failed)
			return
		}
		s.gcMu.Unlock()
		batch.finish(nil)

		if err := s.applyBatch(batch); err != nil {
			s.poison(err)
			return
		}
		// Nothing references the batch's buffers any more (waiters hold
		// only done and err): the next swap opens its batch over them.
		if cap(batch.buf) <= gcRecycleBytes {
			spareBuf, spareIDs = batch.buf, batch.ids
		}
		if s.gcWalBytes >= gcCheckpointBytes || len(s.gcDirty) >= gcCheckpointDirty {
			if err := s.checkpoint(); err != nil {
				s.poison(err)
				return
			}
		}
	}
}

// applyBatch folds the batch's framed records into the committer's
// write-back cache. The in-memory mirror was already updated at stage
// time and is not touched — the committer must not race
// engine-serialised reads.
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

// applyRecordCache folds one WAL record into the write-back cache; it
// is the only interpreter of a record's effect on disk, run by the
// committer for every acknowledged batch and by Open's recovery for
// every complete record in the log. Only the latest record per chunk
// is kept, so the checkpoint writes each chunk file once however many
// times it was overwritten. Put records are copied (the batch buffer is
// recycled) and only their id is read here; the checkpoint decodes the
// rest. A delete leaves a len-0 tombstone so the checkpoint removes the
// file. A wipe clears the directory on the spot.
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
		if err := s.removeAllChunkFiles(); err != nil {
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
// need. With an empty WAL there is nothing to do.
func (s *Store) checkpoint() error {
	if s.gcWalBytes == 0 {
		return nil
	}
	for id, rec := range s.gcDirty {
		if len(rec) == 0 {
			if err := s.removeChunkFile(id); err != nil {
				return err
			}
			continue
		}
		if err := s.writeChunkFile(id, rec); err != nil {
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
// committed and folded, a last checkpoint truncates the WAL, and the
// goroutine exits. Called by Close.
func (s *Store) stopGroupCommit() {
	s.gcMu.Lock()
	s.gcClosed = true
	s.gcMu.Unlock()
	s.gcSignal()
	<-s.gcDone
}
