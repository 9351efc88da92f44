// Command bitrot injects media corruption into a trapnode's durable
// store by flipping bytes directly in on-disk chunk files — the
// operator-side half of the corruption fault-injection harness, for
// chaos-testing a live cluster end to end:
//
//	trapnode -addr :7420 -dir /var/lib/trapnode -scan-interval 30s &
//	bitrot -dir /var/lib/trapnode -list
//	bitrot -dir /var/lib/trapnode -stripe 7 -shard 3
//
// A chunk's file appears at the daemon's next checkpoint, not when the
// write is acknowledged: until then its image lives in the write-ahead
// log. Every at-rest scan checkpoints first, as does a clean shutdown,
// so on a freshly written fleet let one scan tick pass (or restart the
// daemon) before -list.
//
// The damage goes to the file behind the daemon's back, exactly like
// real media rot: the node keeps serving its in-memory mirror until
// its next at-rest scan (trapnode -scan-interval, or a restart)
// re-reads the file, fails the CRC and quarantines the chunk. From
// then on the node answers ErrCorrupt for it, the cluster's verified
// reads decode around it, and the scrubber repairs it — zero manual
// intervention. Rot on a file whose chunk has been rewritten since the
// last checkpoint never counts: the scan's checkpoint replaces that
// file with the newer image before reading it.
//
// The tool never touches the WAL or the directory lock, and -flips
// bytes rather than rewriting structure, so the damage is always the
// kind the CRC is there to catch.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	var (
		dir    = flag.String("dir", "", "trapnode storage directory (the daemon's -dir)")
		list   = flag.Bool("list", false, "list the chunk files and exit")
		stripe = flag.Uint64("stripe", 0, "stripe id of the chunk to damage")
		shard  = flag.Int("shard", -1, "shard index of the chunk to damage")
		offset = flag.Int64("offset", -1, "byte offset to flip (-1: middle of the file)")
		count  = flag.Int("count", 1, "number of consecutive bytes to flip")
	)
	flag.Parse()
	if *dir == "" {
		log.Fatal("bitrot: -dir is required")
	}
	chunksDir := filepath.Join(*dir, "chunks")
	if *list {
		if err := listChunks(chunksDir); err != nil {
			log.Fatalf("bitrot: %v", err)
		}
		return
	}
	if *shard < 0 {
		log.Fatal("bitrot: -stripe and -shard select the chunk to damage (or use -list)")
	}
	if *count < 1 {
		log.Fatal("bitrot: -count must be at least 1")
	}
	path := filepath.Join(chunksDir, fmt.Sprintf("%016x-%08x.chunk", *stripe, uint32(*shard)))
	n, err := flipBytes(path, *offset, *count)
	if err != nil {
		log.Fatalf("bitrot: %v", err)
	}
	fmt.Printf("bitrot: flipped %d byte(s) in %s\n", n, path)
}

// listChunks prints every chunk file with its size, sorted by name
// (stripe-major, matching the id encoding).
func listChunks(chunksDir string) error {
	entries, err := os.ReadDir(chunksDir)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(entries))
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".chunk") {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		info, err := os.Stat(filepath.Join(chunksDir, name))
		if err != nil {
			return err
		}
		fmt.Printf("%s\t%d bytes\n", name, info.Size())
	}
	if len(names) == 0 {
		fmt.Println("bitrot: no chunk files")
	}
	return nil
}

// flipBytes XORs 0xff into count bytes of the file at the given
// offset (-1 selects the middle, which lands in the chunk body rather
// than the header on any realistic block size). The write goes
// straight into the existing file — no temp file, no rename — because
// rot does not announce itself.
func flipBytes(path string, offset int64, count int) (int, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := info.Size()
	if size == 0 {
		return 0, fmt.Errorf("%s is empty", path)
	}
	if offset < 0 {
		offset = size / 2
	}
	if offset >= size {
		return 0, fmt.Errorf("offset %d beyond file size %d", offset, size)
	}
	if max := size - offset; int64(count) > max {
		count = int(max)
	}
	buf := make([]byte, count)
	if _, err := f.ReadAt(buf, offset); err != nil {
		return 0, err
	}
	for i := range buf {
		buf[i] ^= 0xff
	}
	if _, err := f.WriteAt(buf, offset); err != nil {
		return 0, err
	}
	return count, f.Sync()
}
