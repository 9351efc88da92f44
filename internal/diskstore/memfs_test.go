package diskstore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// memFS is an in-memory fileSystem that logs every call it serves, so
// a test can rebuild the disk any prefix of the log leaves behind after
// a crash — with or without what had not been fsynced yet — and count
// the calls an operation makes.
type memFS struct {
	mu   sync.Mutex
	root string
	log  []fsOp
	now  *memImage // every logged op applied
	next int       // the next inode number
}

type fsKind int

const (
	fsOpen   fsKind = iota // a descriptor opened: no effect on the disk
	fsCreate               // a directory entry for a new file
	fsMkdir                // a directory entry for a new directory
	fsRemove               // a directory entry dropped
	fsWrite                // bytes written into a file
	fsTrunc                // a file's size set
	fsSync                 // an fsync: a file's bytes, or a directory's entries
	fsMiss                 // a removal of a name that is not there: no effect
)

// fsOp is one logged call.
type fsOp struct {
	kind fsKind
	name string // the path
	ino  int    // the file or directory the op touches
	dir  int    // entry ops: the directory holding the entry
	off  int    // fsWrite: the offset; fsTrunc: the size
	data []byte // fsWrite
	flag int    // fsOpen
}

// memImage is one state of the disk: paths name inodes, inodes hold
// bytes.
type memImage struct {
	names map[string]int
	files map[int][]byte
	dirs  map[int]bool
}

func newMemImage(root string) *memImage {
	return &memImage{names: map[string]int{root: 0}, files: map[int][]byte{}, dirs: map[int]bool{0: true}}
}

// apply applies op, keeping only the first keep bytes of a write
// (keep < 0: all of them).
func (m *memImage) apply(op fsOp, keep int) {
	switch op.kind {
	case fsCreate:
		m.names[op.name] = op.ino
	case fsMkdir:
		m.names[op.name] = op.ino
		m.dirs[op.ino] = true
	case fsRemove:
		delete(m.names, op.name)
	case fsWrite:
		data := op.data
		if keep >= 0 {
			data = data[:keep]
		}
		b := m.files[op.ino]
		if end := op.off + len(data); end > len(b) {
			b = append(b, make([]byte, end-len(b))...)
		}
		copy(b[op.off:], data)
		m.files[op.ino] = b
	case fsTrunc:
		b := m.files[op.ino]
		if op.off <= len(b) {
			m.files[op.ino] = b[:op.off]
		} else {
			m.files[op.ino] = append(b, make([]byte, op.off-len(b))...)
		}
	}
}

// newMemFS starts an empty disk whose only directory, root, is
// durable. root should be a real directory too: the store's lock file
// is not part of the seam.
func newMemFS(root string) *memFS {
	return &memFS{root: root, now: newMemImage(root), next: 1}
}

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

func (m *memFS) record(op fsOp) {
	m.log = append(m.log, op)
	m.now.apply(op, -1)
}

// entry logs a directory-entry op on name, which must sit in an
// existing directory.
func (m *memFS) entry(kind fsKind, name string, ino int) error {
	dir, ok := m.now.names[filepath.Dir(name)]
	if !ok || !m.now.dirs[dir] {
		return notExist("open", filepath.Dir(name))
	}
	m.record(fsOp{kind: kind, name: name, ino: ino, dir: dir})
	return nil
}

func (m *memFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var missing []string
	for p := dir; p != m.root; p = filepath.Dir(p) {
		if !strings.HasPrefix(p, m.root) {
			return fmt.Errorf("memfs: %s is outside %s", dir, m.root)
		}
		if _, ok := m.now.names[p]; ok {
			break
		}
		missing = append(missing, p)
	}
	for i := len(missing) - 1; i >= 0; i-- {
		if err := m.entry(fsMkdir, missing[i], m.next); err != nil {
			return err
		}
		m.next++
	}
	return nil
}

func (m *memFS) OpenFile(name string, flag int) (file, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.now.names[name]
	if !ok {
		if flag&os.O_CREATE == 0 {
			return nil, notExist("open", name)
		}
		ino = m.next
		if err := m.entry(fsCreate, name, ino); err != nil {
			return nil, err
		}
		m.next++
	}
	m.record(fsOp{kind: fsOpen, name: name, ino: ino, flag: flag})
	if flag&os.O_TRUNC != 0 {
		m.record(fsOp{kind: fsTrunc, name: name, ino: ino})
	}
	return &memFile{fs: m, name: name, ino: ino, append: flag&os.O_APPEND != 0}, nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.now.names[name]
	if !ok || m.now.dirs[ino] {
		return nil, notExist("read", name)
	}
	return bytes.Clone(m.now.files[ino]), nil
}

func (m *memFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ino, ok := m.now.names[dir]; !ok || !m.now.dirs[ino] {
		return nil, notExist("readdir", dir)
	}
	var names []string
	for p := range m.now.names {
		if p != dir && filepath.Dir(p) == dir {
			names = append(names, filepath.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino, ok := m.now.names[name]
	if !ok {
		m.record(fsOp{kind: fsMiss, name: name})
		return notExist("remove", name)
	}
	return m.entry(fsRemove, name, ino)
}

// memFile is a descriptor on a memFS file or directory.
type memFile struct {
	fs     *memFS
	name   string
	ino    int
	append bool
	off    int
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	off := f.off
	if f.append {
		off = len(f.fs.now.files[f.ino])
	}
	f.fs.record(fsOp{kind: fsWrite, name: f.name, ino: f.ino, off: off, data: bytes.Clone(p)})
	f.off = off + len(p)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.record(fsOp{kind: fsSync, name: f.name, ino: f.ino})
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.record(fsOp{kind: fsTrunc, name: f.name, ino: f.ino, off: int(size)})
	return nil
}

func (f *memFile) Close() error { return nil }

// ops returns a copy of the log so far.
func (m *memFS) ops() []fsOp {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]fsOp(nil), m.log...)
}

// crashImages returns the disks a crash just before log entry p can
// leave, the three the write order allows at that point: every
// unsynced op kept, every one dropped, and every one kept but the last
// unsynced write, torn half way. A write is synced once its file is
// fsynced, and a directory entry once its directory is. A truncation
// lands at once, its most dangerous order: the bytes it cut are gone
// while the bytes written after it may not be there yet.
func (m *memFS) crashImages(p int) [3]*memImage {
	m.mu.Lock()
	defer m.mu.Unlock()
	synced := make([]bool, p)
	later := make(map[int]bool) // inodes fsynced between the op judged and p
	torn := -1
	for i := p - 1; i >= 0; i-- {
		switch op := m.log[i]; op.kind {
		case fsSync:
			later[op.ino] = true
		case fsOpen, fsTrunc, fsMiss:
			synced[i] = true
		case fsWrite:
			synced[i] = later[op.ino]
			if !synced[i] && torn < 0 {
				torn = i
			}
		default:
			synced[i] = later[op.dir]
		}
	}
	imgs := [3]*memImage{newMemImage(m.root), newMemImage(m.root), newMemImage(m.root)}
	for i, op := range m.log[:p] {
		imgs[0].apply(op, -1)
		if synced[i] {
			imgs[1].apply(op, -1)
		}
		if i == torn {
			imgs[2].apply(op, len(op.data)/2)
		} else {
			imgs[2].apply(op, -1)
		}
	}
	return imgs
}

// reachable lists the image's paths whose every parent directory is
// in the image too, sorted so a directory precedes what it holds.
func (m *memImage) reachable(root string) []string {
	paths := make([]string, 0, len(m.names))
	for p := range m.names {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	made := map[string]bool{root: true}
	out := paths[:0]
	for _, p := range paths {
		if p == root || !made[filepath.Dir(p)] {
			continue
		}
		if m.dirs[m.names[p]] {
			made[p] = true
		}
		out = append(out, p)
	}
	return out
}

// key identifies the image's reachable content.
func (m *memImage) key(root string) [32]byte {
	h := sha256.New()
	for _, p := range m.reachable(root) {
		fmt.Fprintf(h, "%s %t %d\n", p, m.dirs[m.names[p]], len(m.files[m.names[p]]))
		h.Write(m.files[m.names[p]])
	}
	var k [32]byte
	h.Sum(k[:0])
	return k
}

// writeTo lays the image down as a real directory tree at dst, root
// becoming dst.
func (m *memImage) writeTo(root, dst string) error {
	for _, p := range m.reachable(root) {
		path := filepath.Join(dst, strings.TrimPrefix(p, root))
		if m.dirs[m.names[p]] {
			if err := os.Mkdir(path, 0o755); err != nil {
				return err
			}
			continue
		}
		if err := os.WriteFile(path, m.files[m.names[p]], 0o644); err != nil {
			return err
		}
	}
	return nil
}
