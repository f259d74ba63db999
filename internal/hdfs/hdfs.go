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
	"bytes"
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
	// is validated only: the in-memory store keeps one copy of each block.
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

// Block is one stored block of a file.
type Block struct {
	// ID is the block's index within its file.
	ID int
	// Data is the block contents.
	Data []byte
}

// File is a stored file: an ordered list of blocks.
type File struct {
	// Name is the file's path-like identifier.
	Name string
	// Blocks are the file's blocks in order.
	Blocks []Block
	// size is the total byte count.
	size units.Bytes
}

// Size returns the file's total size.
func (f *File) Size() units.Bytes { return f.size }

// NumBlocks returns the block count — which is also the number of map tasks
// a MapReduce job over this file will run.
func (f *File) NumBlocks() int { return len(f.Blocks) }

// Reader returns a reader over the whole file contents.
func (f *File) Reader() io.Reader {
	readers := make([]io.Reader, len(f.Blocks))
	for i := range f.Blocks {
		readers[i] = bytes.NewReader(f.Blocks[i].Data)
	}
	return io.MultiReader(readers...)
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

// Write stores data under name, splitting it into blocks. An existing file
// of the same name is replaced.
func (s *Store) Write(name string, data []byte) (*File, error) {
	if name == "" {
		return nil, fmt.Errorf("hdfs: empty file name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	bs := int(s.config.BlockSize)
	f := &File{Name: name, size: units.Bytes(len(data))}
	for off, id := 0, 0; off < len(data); off, id = off+bs, id+1 {
		end := off + bs
		if end > len(data) {
			end = len(data)
		}
		block := make([]byte, end-off)
		copy(block, data[off:end])
		f.Blocks = append(f.Blocks, Block{ID: id, Data: block})
	}
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
	if block < 0 || block >= len(f.Blocks) {
		return nil, fmt.Errorf("hdfs: file %s has no block %d", name, block)
	}
	return f.Blocks[block].Data, nil
}
