package hdfs

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"heterohadoop/internal/units"
)

// local.go is the input path: ReadWindow cuts a map split's window out of
// any io.ReaderAt — a stored File or a disk-resident LocalFile — so every
// map task reads only its own split, and paper-scale (multi-GB) local
// inputs never need to fit in memory; Window makes the same cut in memory.

// LocalFile is a read-only handle on a local input file.
type LocalFile struct {
	f    *os.File
	size int64
}

// OpenLocal opens path for windowed reads.
func OpenLocal(path string) (*LocalFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &LocalFile{f: f, size: st.Size()}, nil
}

// Close releases the file handle.
func (lf *LocalFile) Close() error { return lf.f.Close() }

// NumBlocks returns how many blockSize-sized splits cover the file.
func (lf *LocalFile) NumBlocks(blockSize units.Bytes) int { return numBlocks(lf.size, blockSize) }

// ReadWindow returns the window of split [start, end) of the file, as the
// ReadWindow function does.
func (lf *LocalFile) ReadWindow(start, end int64, buf []byte) ([]byte, error) {
	return ReadWindow(lf.f, lf.size, start, end, buf)
}

// ReadWindow returns the bytes a map split [start, end) of the size-byte
// input r must see under LineRecordReader semantics: the range itself plus
// the tail of the record straddling (or starting exactly at) end, through
// the first newline at or after end — or EOF. The result reuses buf's
// capacity when it fits, so a caller holding one buffer per task slot reads
// windows allocation-free after warm-up. ReadWindow is safe for concurrent
// use with distinct buffers (reads go through ReadAt).
func ReadWindow(r io.ReaderAt, size, start, end int64, buf []byte) ([]byte, error) {
	if start < 0 || start > size {
		return nil, fmt.Errorf("hdfs: window start %d outside input of %d bytes", start, size)
	}
	if end > size {
		end = size
	}
	if end < start {
		end = start
	}
	n := int(end - start)
	if cap(buf) < n {
		buf = make([]byte, 0, n+64*1024)
	}
	buf = buf[:n]
	if n > 0 {
		if _, err := r.ReadAt(buf, start); err != nil {
			return nil, fmt.Errorf("hdfs: window [%d,%d): %w", start, end, err)
		}
	}
	// Extend through the first newline at or after end. The straddling line
	// is usually short, so the chunks start at 256 bytes and double to 64 KB.
	chunk := int64(256)
	pos := end
	for pos < size {
		c := min(chunk, size-pos)
		off := len(buf)
		if cap(buf)-off < int(c) {
			grown := make([]byte, off, off+2*int(c))
			copy(grown, buf)
			buf = grown
		}
		buf = buf[:off+int(c)]
		if _, err := r.ReadAt(buf[off:], pos); err != nil {
			return nil, fmt.Errorf("hdfs: window tail at %d: %w", pos, err)
		}
		if i := bytes.IndexByte(buf[off:], '\n'); i >= 0 {
			return buf[:off+i+1], nil
		}
		pos += c
		chunk = min(2*chunk, 64*1024)
	}
	return buf, nil
}

// Window returns ReadWindow's bytes for split [start, end) of data as a
// view, capped so an append cannot reach past it. start must lie in data.
func Window(data []byte, start, end int) []byte {
	end = min(max(end, start), len(data))
	if i := bytes.IndexByte(data[end:], '\n'); i >= 0 {
		end += i + 1
	} else {
		end = len(data)
	}
	return data[start:end:end]
}
