package diskstore

import "os"

// fileSystem is every file call the store makes, the directory lock
// aside. The durable path's safety rests on the order of these calls,
// so they all pass through here: osFS is the only production
// implementation, and the crash-image test records the calls to build
// every disk state a crash can leave behind.
type fileSystem interface {
	MkdirAll(dir string) error
	// OpenFile opens a file, or with os.O_RDONLY a directory to fsync.
	OpenFile(name string, flag int) (file, error)
	ReadFile(name string) ([]byte, error)
	// ReadDir lists the names in dir, sorted.
	ReadDir(dir string) ([]string, error)
	Remove(name string) error
}

// file is what the store does through a descriptor.
type file interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// osFS is the real file system.
type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) OpenFile(name string, flag int) (file, error) {
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	names := make([]string, len(entries))
	for i, ent := range entries {
		names[i] = ent.Name()
	}
	return names, err
}

func (osFS) Remove(name string) error { return os.Remove(name) }
