// Package diskstore is the durable ChunkStore: one directory per
// storage node, one file per chunk with the version vector persisted
// alongside the data, and a write-ahead log that makes every mutation
// atomic across crashes.
//
// # Durability protocol
//
// A mutation is acknowledged once its write-ahead record is durable,
// and not before. There is one write path, group commit
// (groupcommit.go):
//
//  1. Stage: the caller frames the full mutation (operation, chunk id,
//     version vector, metadata, data) into the open batch and updates
//     the in-memory mirror.
//  2. Commit: one committer goroutine appends the batch to the WAL with
//     one write and one fsync, then acknowledges every mutation in it.
//  3. Checkpoint: acknowledged records wait in a write-back cache
//     (latest image per chunk) until the WAL reaches 8 MiB, a Scan, or
//     Close. The checkpoint writes each cached chunk file in place
//     through one descriptor and fsyncs it, removes deleted ones,
//     fsyncs the directory, and only then truncates the WAL. A chunk
//     put and deleted inside one window never gets a file.
//
// Open recovers through the same code: every complete WAL record is
// folded into the write-back cache, a torn tail — the crash hit
// mid-append, so nothing in it was acknowledged — is discarded, one
// checkpoint writes the result out, and then the chunk files are
// loaded. A chunk file that a crash tore mid-write is still covered by
// the WAL, so that checkpoint rewrites it before it is loaded. Chunk
// files are self-describing (magic, chunk id, version vector, data,
// CRC), so loading is a directory scan; file names are only a lookup
// convenience. Every file call goes through the fileSystem seam
// (fs.go), the directory lock aside.
//
// The in-memory mirror makes reads memory-speed. A read of a chunk
// whose mutation is staged but not yet durable waits for its batch.
package diskstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"trapquorum/client"
	"trapquorum/internal/chunkmeta"
	"trapquorum/internal/memstore"
)

const (
	// chunkMagic heads legacy (pre-metadata) chunk files and WAL put
	// records; still readable, loaded with empty integrity metadata.
	chunkMagic = 0x54514331 // "TQC1"
	// chunkMagic2 heads current chunk files: same layout plus the
	// chunkmeta.Meta block between the id and the version vector.
	chunkMagic2 = 0x54514332 // "TQC2"
	// maxRecord bounds a WAL record or chunk file payload; anything
	// larger is treated as corruption rather than allocated.
	maxRecord = 1 << 28

	opPut    = 1
	opDelete = 2
	opWipe   = 3
	// opPut2 is a put record carrying the metadata block (TQC2 body);
	// opPut remains decodable so a WAL written by an older binary
	// replays cleanly.
	opPut2 = 4

	// metaHasSelf flags an encoded Meta whose self-sum is present.
	metaHasSelf = 1 << 0
)

// ErrCorrupt reports an unreadable chunk file — torn WAL tails are
// silently discarded (the mutation was never acknowledged), but a
// chunk file that fails its checksum is real media corruption and is
// surfaced rather than dropped. It wraps client.ErrCorrupt so the
// condition keeps its identity through the node engine and transports.
var ErrCorrupt = fmt.Errorf("diskstore: corrupt chunk file: %w", client.ErrCorrupt)

// ErrLocked reports a node directory already held by another live
// store (for example a second daemon started on the same -dir).
var ErrLocked = errors.New("diskstore: directory locked by another process")

// ErrClosed reports a mutation or a scan on a store that Close has
// stopped: no committer is left to make it durable.
var ErrClosed = errors.New("diskstore: store closed")

// Store implements nodeengine.ChunkStore and nodeengine.BatchStore over
// a per-node directory. It is not safe for concurrent use on its own:
// the node engine serialises all calls, the staging ones (PutBatched,
// DeleteBatched, WipeBatched, and Put/Delete/Wipe, which stage and
// wait) included. The wait functions staging returns may be called from
// any goroutine.
type Store struct {
	dir       string
	chunksDir string
	fs        fileSystem
	wal       file            // opened O_APPEND: every write lands at the end
	lock      *os.File        // flock'd while open; auto-released on process death
	mem       *memstore.Store // in-memory mirror of the durable state
	// quar holds the ids of quarantined chunks: files whose on-disk
	// image failed its CRC at Open or during a Scan. A quarantined
	// chunk still *exists* (repair decides what to do with it), but
	// every Get fails with ErrCorrupt until a Put or Delete replaces
	// it. Values describe what was found, for error messages.
	quar map[client.ChunkID]string
	sync bool
	// failed poisons the store after a mutation error of unknown
	// durability: the disk and the in-memory mirror may disagree, so
	// every further operation refuses until a reopen reconverges them
	// through recovery. Guarded by gcMu: the committer can poison
	// concurrently with engine-serialised calls.
	failed error
	// crashAfterWAL, when set (tests only, under gcMu), fails the next
	// batch with this error after its WAL append is durable but before
	// it is applied — the "power cut between append and apply" window.
	crashAfterWAL error

	// Group commit (see groupcommit.go). gcMu guards the batch state,
	// pending/durable epochs, the checkpoint requests and failed.
	// gcDirty, gcWalBytes and gcFiles are committer-owned once Open
	// returns.
	gcMu        sync.Mutex
	gcSpace     sync.Cond // batch has room (stager back-pressure)
	gcRead      sync.Cond // durable epoch or gcCkptDone advanced
	gcWork      chan struct{}
	gcCur       *gcBatch
	gcEpoch     uint64 // epoch of gcCur
	gcDurable   uint64 // highest epoch whose WAL append is durable
	gcWipeEpoch uint64 // epoch of the most recent staged wipe
	gcPending   map[client.ChunkID]uint64
	gcCkptWant  uint64 // checkpoints requested by Scan
	gcCkptDone  uint64 // requests the committer has answered
	gcClosed    bool
	gcDone      chan struct{}
	// gcDirty is the committer's write-back cache: the chunk-file
	// image of the latest put per chunk mutated since the last
	// checkpoint (nil = delete pending). The checkpoint turns it into
	// chunk files — one write per id however many times it was
	// overwritten.
	gcDirty    map[client.ChunkID][]byte
	gcWalBytes int64
	// gcFiles holds the ids whose chunk file is on disk, so removing a
	// chunk that never got a file costs no syscall. It is nil until
	// loadChunkFiles has read the directory, so recovery's checkpoint
	// removes every tombstoned file.
	gcFiles map[client.ChunkID]struct{}
	// commitGate, when set (tests only, before the first mutation), is
	// called by the committer after it swaps a batch out and before
	// that batch's WAL append — tests hold a batch there.
	commitGate func()
}

// Option customises a Store.
type Option func(*Store)

// WithSyncWrites controls whether every WAL append and every checkpoint
// fsync (the default). Disabling trades crash durability for speed;
// the write ordering is kept — no chunk file is written before its
// record is in the WAL, and the WAL is truncated only after the
// checkpoint — so a process crash or a clean exit still leaves a
// directory that recovers consistent.
func WithSyncWrites(sync bool) Option {
	return func(s *Store) { s.sync = sync }
}

// Open loads (or initialises) the per-node directory — it replays every
// complete WAL record into the chunk files, discards a torn WAL tail and
// loads the chunk files — and starts the committer.
func Open(dir string, opts ...Option) (*Store, error) {
	return open(dir, osFS{}, opts...)
}

func open(dir string, fsys fileSystem, opts ...Option) (*Store, error) {
	s := &Store{
		dir:       dir,
		chunksDir: filepath.Join(dir, "chunks"),
		fs:        fsys,
		mem:       memstore.New(),
		quar:      make(map[client.ChunkID]string),
		sync:      true,
		gcWork:    make(chan struct{}, 1),
		gcCur:     newGCBatch(nil, nil),
		gcEpoch:   1,
		gcPending: make(map[client.ChunkID]uint64),
		gcDirty:   make(map[client.ChunkID][]byte),
		gcDone:    make(chan struct{}),
	}
	s.gcSpace.L = &s.gcMu
	s.gcRead.L = &s.gcMu
	for _, opt := range opts {
		opt(s)
	}
	if err := s.fs.MkdirAll(s.chunksDir); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	lock, err := acquireDirLock(filepath.Join(dir, "lock"))
	if err != nil {
		return nil, err
	}
	s.lock = lock
	wal, err := s.fs.OpenFile(s.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND)
	if err != nil {
		lock.Close()
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s.wal = wal
	// Make the directory skeleton itself durable: without this, a
	// power cut after the first acknowledged mutation on a fresh
	// directory could drop the just-created chunks/ and wal entries
	// along with everything in them.
	if err := s.syncDir(dir); err != nil {
		wal.Close()
		lock.Close()
		return nil, err
	}
	if err := s.recover(); err != nil {
		wal.Close()
		lock.Close()
		return nil, err
	}
	go s.commitLoop()
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Get implements nodeengine.ChunkStore from the in-memory mirror. A
// read of a chunk with a staged mutation waits until that mutation is
// durable. A quarantined chunk (its file failed the CRC at Open or
// during a Scan) fails with ErrCorrupt until a mutation replaces it.
func (s *Store) Get(id client.ChunkID) (data []byte, versions []uint64, meta chunkmeta.Meta, ok bool, err error) {
	if err := s.gateRead(id); err != nil {
		return nil, nil, chunkmeta.Meta{}, false, err
	}
	if why, bad := s.quar[id]; bad {
		return nil, nil, chunkmeta.Meta{}, false, fmt.Errorf("%w: chunk %s quarantined: %s", ErrCorrupt, id, why)
	}
	return s.mem.Get(id)
}

// Put implements nodeengine.ChunkStore: it stages the put and waits
// for its batch to be durable. A put also clears any quarantine on the
// id — the new image replaces the rot.
func (s *Store) Put(id client.ChunkID, data []byte, versions []uint64, meta chunkmeta.Meta) error {
	return waitStaged(s.PutBatched(id, data, versions, meta))
}

// Delete implements nodeengine.ChunkStore: stage, then wait.
func (s *Store) Delete(id client.ChunkID) error {
	return waitStaged(s.DeleteBatched(id))
}

// Wipe implements nodeengine.ChunkStore: media replacement, every
// chunk removed. Stage, then wait.
func (s *Store) Wipe() error {
	return waitStaged(s.WipeBatched())
}

func waitStaged(wait func() error, err error) error {
	if err != nil {
		return err
	}
	return wait()
}

// Len implements nodeengine.ChunkStore. Quarantined chunks still
// count: they exist, they are just unreadable.
func (s *Store) Len() (int, error) {
	if err := s.failedErr(); err != nil {
		return 0, err
	}
	n, err := s.mem.Len()
	return n + len(s.quar), err
}

// Scan implements nodeengine.Scanner. It first has the committer
// checkpoint everything staged so far, so the chunk files on disk are
// the latest durable image of every chunk — never one the write-back
// cache has already superseded. It then re-reads every chunk file —
// not the in-memory mirror — and quarantines the ones that fail their
// CRC, so cold bit-rot surfaces through the probe/health path without
// waiting for a client read. It returns the ids of all currently
// quarantined chunks (newly found plus still unhealed).
func (s *Store) Scan() ([]client.ChunkID, error) {
	if err := s.checkpointNow(); err != nil {
		return nil, err
	}
	// Nothing writes chunks/ from here on: the engine serialises this
	// call with every stager, and the committer has nothing to do.
	names, err := s.fs.ReadDir(s.chunksDir)
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	for _, name := range names {
		if !strings.HasSuffix(name, ".chunk") {
			continue
		}
		id, ok := parseChunkFileName(name)
		if !ok {
			continue
		}
		raw, err := s.fs.ReadFile(filepath.Join(s.chunksDir, name))
		if err != nil {
			return nil, fmt.Errorf("diskstore: %w", err)
		}
		if _, _, _, _, derr := decodeChunkFile(raw); derr != nil {
			s.quar[id] = derr.Error()
			s.mem.Delete(id)
		}
	}
	if len(s.quar) == 0 {
		return nil, nil
	}
	ids := make([]client.ChunkID, 0, len(s.quar))
	for id := range s.quar {
		ids = append(ids, id)
	}
	return ids, nil
}

// Close implements nodeengine.ChunkStore: it drains the committer — the
// last staged batch is committed and a final checkpoint leaves the
// chunk files current and the WAL empty — then closes the WAL handle
// and releases the directory lock.
func (s *Store) Close() error {
	s.stopGroupCommit()
	err := s.wal.Close()
	if cerr := s.lock.Close(); err == nil {
		err = cerr
	}
	return err
}

// ---- chunk files -------------------------------------------------

// writeChunkFile writes id's chunk file in place through one
// descriptor — create or truncate, write, fsync, close — from the file
// image the write-back cache holds, filling in its CRC. A crash can
// leave the file torn; the WAL still holds the record until the
// checkpoint truncates it, and recovery rewrites every chunk file the
// WAL covers before it loads any.
func (s *Store) writeChunkFile(id client.ChunkID, img []byte) error {
	binary.BigEndian.PutUint32(img[len(img)-4:], crc32.ChecksumIEEE(img[4:len(img)-4]))
	f, err := s.fs.OpenFile(filepath.Join(s.chunksDir, chunkFileName(id)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY)
	if err != nil {
		return fmt.Errorf("diskstore: checkpoint: %w", err)
	}
	_, err = f.Write(img)
	if err == nil && s.sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("diskstore: checkpoint: %w", err)
	}
	return nil
}

// removeChunkFile removes the chunk file without the directory sync;
// removing a missing chunk is a no-op.
func (s *Store) removeChunkFile(id client.ChunkID) error {
	if err := s.fs.Remove(filepath.Join(s.chunksDir, chunkFileName(id))); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("diskstore: %w", err)
	}
	return nil
}

// removeAllChunkFiles removes every chunk file without the directory
// sync.
func (s *Store) removeAllChunkFiles() error {
	names, err := s.fs.ReadDir(s.chunksDir)
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	for _, name := range names {
		if err := s.fs.Remove(filepath.Join(s.chunksDir, name)); err != nil {
			return fmt.Errorf("diskstore: %w", err)
		}
	}
	return nil
}

// ---- write-ahead log ---------------------------------------------

// appendWALFrame appends one framed record — length, CRC, payload —
// to dst, the payload written in place by encode: the 8-byte header is
// reserved first and filled in once the payload's extent is known.
func appendWALFrame(dst []byte, encode func([]byte) []byte) []byte {
	start := len(dst)
	dst = encode(append(dst, make([]byte, 8)...))
	payload := dst[start+8:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// nextWALFrame decodes the leading frame of raw, returning its payload
// and the remaining bytes. An incomplete or checksum-failing frame is
// an error; replay treats that as the torn tail.
func nextWALFrame(raw []byte) (payload, rest []byte, err error) {
	if len(raw) < 8 {
		return nil, nil, fmt.Errorf("torn header")
	}
	size := binary.BigEndian.Uint32(raw[0:4])
	sum := binary.BigEndian.Uint32(raw[4:8])
	if size > maxRecord || uint64(len(raw)) < 8+uint64(size) {
		return nil, nil, fmt.Errorf("torn or garbage tail")
	}
	payload = raw[8 : 8+size]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, nil, fmt.Errorf("torn payload")
	}
	return payload, raw[8+size:], nil
}

// walAppendRaw appends pre-framed bytes (one or many records) with a
// single write and, when configured, a single fsync — the committer's
// durability point.
func (s *Store) walAppendRaw(buf []byte) error {
	if _, err := s.wal.Write(buf); err != nil {
		return fmt.Errorf("diskstore: wal append: %w", err)
	}
	if s.sync {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("diskstore: wal sync: %w", err)
		}
	}
	return nil
}

// walReset empties the log once a checkpoint has made its records
// redundant.
func (s *Store) walReset() error {
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("diskstore: wal reset: %w", err)
	}
	// No sync needed: replaying an already-checkpointed record is
	// idempotent, so a stale-but-valid WAL after a crash is harmless.
	return nil
}

// ---- recovery ----------------------------------------------------

// recover folds every complete WAL record into the write-back cache
// through the committer's own applyRecordCache, runs one checkpoint —
// the chunk files now hold every acknowledged mutation, and only then
// is the log truncated — and loads the chunk files into the mirror.
// Replay stops at the first torn frame (short frame or checksum
// mismatch): nothing after it was acknowledged.
func (s *Store) recover() error {
	raw, err := s.fs.ReadFile(s.walPath())
	if err != nil {
		return fmt.Errorf("diskstore: wal read: %w", err)
	}
	s.gcWalBytes = int64(len(raw)) // a torn tail alone still needs the truncation
	for len(raw) > 0 {
		payload, rest, err := nextWALFrame(raw)
		if err != nil {
			break // the torn tail
		}
		if err := s.applyRecordCache(payload); err != nil {
			return err
		}
		raw = rest
	}
	if err := s.checkpoint(); err != nil {
		return err
	}
	return s.loadChunkFiles()
}

// loadChunkFiles scans the chunks directory, removing the temp files a
// crash mid-checkpoint left behind in directories written before
// checkpoints wrote in place, and loading every committed chunk. A
// chunk file that fails its checksum is quarantined under the id parsed
// from its name — the node keeps serving everything else, the
// quarantined id fails reads with ErrCorrupt, and repair eventually
// rewrites it — rather than refusing to open the whole store for one
// rotten file.
func (s *Store) loadChunkFiles() error {
	names, err := s.fs.ReadDir(s.chunksDir)
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	s.gcFiles = make(map[client.ChunkID]struct{}, len(names))
	for _, name := range names {
		path := filepath.Join(s.chunksDir, name)
		if strings.HasSuffix(name, ".tmp") {
			// An interrupted temp-file checkpoint write of an older
			// binary: the WAL replay that ran before this scan has
			// already redone it.
			if err := s.fs.Remove(path); err != nil {
				return fmt.Errorf("diskstore: %w", err)
			}
			continue
		}
		raw, err := s.fs.ReadFile(path)
		if err != nil {
			return fmt.Errorf("diskstore: %w", err)
		}
		id, data, versions, meta, err := decodeChunkFile(raw)
		if err != nil {
			if qid, ok := parseChunkFileName(name); ok {
				s.quar[qid] = err.Error()
				s.gcFiles[qid] = struct{}{}
				continue
			}
			return fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
		}
		if err := s.mem.Put(id, data, versions, meta); err != nil {
			return err
		}
		s.gcFiles[id] = struct{}{}
	}
	return nil
}

// ---- encoding ----------------------------------------------------

func (s *Store) walPath() string { return filepath.Join(s.dir, "wal") }

func chunkFileName(id client.ChunkID) string {
	return fmt.Sprintf("%016x-%08x.chunk", id.Stripe, uint32(id.Shard))
}

// parseChunkFileName inverts chunkFileName, recovering the id of a
// chunk file whose content is unreadable (so it can be quarantined by
// id rather than failing the whole directory).
func parseChunkFileName(name string) (client.ChunkID, bool) {
	var stripe uint64
	var shard uint32
	n, err := fmt.Sscanf(name, "%16x-%8x.chunk", &stripe, &shard)
	if err != nil || n != 2 || name != chunkFileName(client.ChunkID{Stripe: stripe, Shard: int(int32(shard))}) {
		return client.ChunkID{}, false
	}
	return client.ChunkID{Stripe: stripe, Shard: int(int32(shard))}, true
}

// appendChunkBody encodes id + meta + versions + data (shared by chunk
// files and WAL put records; the TQC2 body).
func appendChunkBody(dst []byte, id client.ChunkID, data []byte, versions []uint64, meta chunkmeta.Meta) []byte {
	dst = binary.BigEndian.AppendUint64(dst, id.Stripe)
	dst = binary.BigEndian.AppendUint32(dst, uint32(id.Shard))
	var flags byte
	if meta.HasSelf {
		flags |= metaHasSelf
	}
	dst = append(dst, flags)
	dst = binary.BigEndian.AppendUint64(dst, meta.Self)
	dst = binary.BigEndian.AppendUint64(dst, meta.RecSum)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(meta.Rec)))
	for _, e := range meta.Rec {
		dst = binary.BigEndian.AppendUint64(dst, e.Version)
		dst = binary.BigEndian.AppendUint64(dst, e.Sum)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(versions)))
	for _, v := range versions {
		dst = binary.BigEndian.AppendUint64(dst, v)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(data)))
	return append(dst, data...)
}

// decodeChunkBody inverts appendChunkBody. The returned data aliases p:
// every caller either copies it onward (the mirror's Put, the chunk
// file image) or discards it, so the decode itself does not.
func decodeChunkBody(p []byte, withMeta bool) (id client.ChunkID, data []byte, versions []uint64, meta chunkmeta.Meta, err error) {
	if len(p) < 12 {
		return id, nil, nil, meta, fmt.Errorf("short body")
	}
	id = decodeChunkID(p)
	p = p[12:]
	if withMeta {
		if len(p) < 21 {
			return id, nil, nil, meta, fmt.Errorf("short metadata block")
		}
		flags := p[0]
		meta.HasSelf = flags&metaHasSelf != 0
		meta.Self = binary.BigEndian.Uint64(p[1:9])
		meta.RecSum = binary.BigEndian.Uint64(p[9:17])
		nrec := binary.BigEndian.Uint32(p[17:21])
		p = p[21:]
		if uint64(nrec)*16 > uint64(len(p)) {
			return id, nil, nil, meta, fmt.Errorf("truncated checksum record")
		}
		if nrec > 0 {
			meta.Rec = make([]client.BlockSum, nrec)
			for i := range meta.Rec {
				meta.Rec[i].Version = binary.BigEndian.Uint64(p[16*i:])
				meta.Rec[i].Sum = binary.BigEndian.Uint64(p[16*i+8:])
			}
			p = p[16*nrec:]
		}
	}
	if len(p) < 4 {
		return id, nil, nil, meta, fmt.Errorf("missing version count")
	}
	nver := binary.BigEndian.Uint32(p[0:4])
	p = p[4:]
	if uint64(nver)*8 > uint64(len(p)) {
		return id, nil, nil, meta, fmt.Errorf("truncated versions")
	}
	versions = make([]uint64, nver)
	for i := range versions {
		versions[i] = binary.BigEndian.Uint64(p[8*i:])
	}
	p = p[8*nver:]
	if len(p) < 4 {
		return id, nil, nil, meta, fmt.Errorf("missing data length")
	}
	dlen := binary.BigEndian.Uint32(p[0:4])
	p = p[4:]
	if uint64(dlen) != uint64(len(p)) {
		return id, nil, nil, meta, fmt.Errorf("data length %d, have %d bytes", dlen, len(p))
	}
	return id, p, versions, meta, nil
}

func appendPutRecord(dst []byte, id client.ChunkID, data []byte, versions []uint64, meta chunkmeta.Meta) []byte {
	dst = append(dst, opPut2)
	return appendChunkBody(dst, id, data, versions, meta)
}

// putRecordID reads only the chunk id of a put record, which heads the
// body of both record versions.
func putRecordID(p []byte) (id client.ChunkID, err error) {
	if len(p) < 13 || (p[0] != opPut && p[0] != opPut2) {
		return id, fmt.Errorf("not a put record")
	}
	return decodeChunkID(p[1:]), nil
}

// decodeChunkID reads the 12-byte id encoding — stripe, then shard —
// that heads a chunk body and follows a delete record's op byte.
func decodeChunkID(p []byte) client.ChunkID {
	return client.ChunkID{
		Stripe: binary.BigEndian.Uint64(p[0:8]),
		Shard:  int(int32(binary.BigEndian.Uint32(p[8:12]))),
	}
}

func appendDeleteRecord(dst []byte, id client.ChunkID) []byte {
	dst = append(dst, opDelete)
	dst = binary.BigEndian.AppendUint64(dst, id.Stripe)
	return binary.BigEndian.AppendUint32(dst, uint32(id.Shard))
}

func decodeDeleteRecord(p []byte) (id client.ChunkID, err error) {
	if len(p) != 13 || p[0] != opDelete {
		return id, fmt.Errorf("malformed delete record")
	}
	return decodeChunkID(p[1:]), nil
}

func decodeChunkFile(raw []byte) (id client.ChunkID, data []byte, versions []uint64, meta chunkmeta.Meta, err error) {
	if len(raw) < 8 {
		return id, nil, nil, meta, fmt.Errorf("short file")
	}
	magic := binary.BigEndian.Uint32(raw[0:4])
	if magic != chunkMagic && magic != chunkMagic2 {
		return id, nil, nil, meta, fmt.Errorf("bad magic")
	}
	body := raw[4 : len(raw)-4]
	sum := binary.BigEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return id, nil, nil, meta, fmt.Errorf("checksum mismatch")
	}
	return decodeChunkBody(body, magic == chunkMagic2)
}

// ---- filesystem helpers ------------------------------------------

// syncDir fsyncs a directory so a just-created or just-removed entry
// survives power loss.
func (s *Store) syncDir(dir string) error {
	if !s.sync {
		return nil
	}
	d, err := s.fs.OpenFile(dir, os.O_RDONLY)
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	err = d.Sync()
	cerr := d.Close()
	if err != nil {
		return fmt.Errorf("diskstore: dir sync: %w", err)
	}
	if cerr != nil {
		return fmt.Errorf("diskstore: %w", cerr)
	}
	return nil
}
