// Package hdfs provides the distributed-file-system substrate under the
// MapReduce engine: a block store that splits files into fixed-size blocks
// (the paper's central system-level tuning knob, swept 32–512 MB), and a
// disk timing model used by the cluster simulator to cost block reads,
// spills and shuffle traffic.
//
// The store is in-memory — the experiments are simulations, not a storage
// product — but it preserves the structural behaviour that drives the
// paper's results: the number of map tasks equals input size divided by
// block size, and blocks have per-request access overhead.
package hdfs

import (
	"fmt"
	"io"
	"sync"

	"heterohadoop/internal/units"
)

// Config configures a block store.
type Config struct {
	// BlockSize is the HDFS block size. The paper sweeps 32–512 MB.
	BlockSize units.Bytes
	// Replication is the block replication factor (Hadoop default 3). It
	// is validated only: the in-memory store keeps one copy of each file.
	Replication int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BlockSize <= 0 {
		return fmt.Errorf("hdfs: block size must be positive, got %v", c.BlockSize)
	}
	if c.Replication < 1 {
		return fmt.Errorf("hdfs: replication must be >= 1, got %d", c.Replication)
	}
	return nil
}

// File is a stored file. Its bytes are held once, block by block: a block
// is its own allocation, so storing a large file never needs one free heap
// span of the whole file's size, which a fragmented heap grows to find.
type File struct {
	// Name is the file's path-like identifier.
	Name      string
	blocks    [][]byte // blockSize bytes each; the last may be shorter
	size      int64
	blockSize int64
}

// Size returns the file's total size.
func (f *File) Size() units.Bytes { return units.Bytes(f.size) }

// BlockSize returns the block size the file was stored with.
func (f *File) BlockSize() units.Bytes { return units.Bytes(f.blockSize) }

// NumBlocks returns the block count — which is also the number of map tasks
// a MapReduce job over this file will run.
func (f *File) NumBlocks() int { return len(f.blocks) }

// ReadAt reads the file's bytes at off (io.ReaderAt), so a map task reads
// its split window from a stored file as it does from a local one.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("hdfs: %s: negative offset %d", f.Name, off)
	}
	n := 0
	for n < len(p) && off < f.size {
		k := copy(p[n:], f.blocks[off/f.blockSize][off%f.blockSize:])
		n += k
		off += int64(k)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// numBlocks returns how many blockSize-sized blocks cover size bytes. It
// divides size-1, so a block size near math.MaxInt64 cannot overflow.
func numBlocks(size int64, blockSize units.Bytes) int {
	if blockSize <= 0 || size <= 0 {
		return 0
	}
	return int((size-1)/int64(blockSize) + 1)
}

// Store is an in-memory HDFS-like block store.
type Store struct {
	mu     sync.RWMutex
	config Config
	files  map[string]*File
}

// NewStore creates a store with the given configuration.
func NewStore(config Config) (*Store, error) {
	if err := config.Validate(); err != nil {
		return nil, err
	}
	return &Store{config: config, files: make(map[string]*File)}, nil
}

// Write stores a copy of data under name. An existing file of the same
// name is replaced.
func (s *Store) Write(name string, data []byte) (*File, error) {
	if name == "" {
		return nil, fmt.Errorf("hdfs: empty file name")
	}
	bs := int(s.config.BlockSize)
	f := &File{Name: name, size: int64(len(data)), blockSize: int64(bs)}
	f.blocks = make([][]byte, numBlocks(f.size, s.config.BlockSize))
	for i := range f.blocks {
		f.blocks[i] = append([]byte(nil), data[i*bs:min((i+1)*bs, len(data))]...)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[name] = f
	return f, nil
}

// Open returns the named file.
func (s *Store) Open(name string) (*File, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("hdfs: file %s not found", name)
	}
	return f, nil
}

// ReadBlock returns the data of one block of the named file.
func (s *Store) ReadBlock(name string, block int) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("hdfs: file %s not found", name)
	}
	if block < 0 || block >= len(f.blocks) {
		return nil, fmt.Errorf("hdfs: file %s has no block %d", name, block)
	}
	return f.blocks[block], nil
}
