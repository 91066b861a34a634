package utility

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// JSONL helpers shared by the persistent utility Store and the valuation
// service's durable job journal (internal/valserve): append-only files
// with one JSON document per line. The format is crash-safe by
// construction — appends are a single write, a torn tail line is skipped
// on the next scan, and compaction rewrites through a temp file and an
// atomic rename so a crash leaves either the old or the new file, never a
// mix.

// maxJSONLLine bounds one scanned line; records here are small (a
// coalition utility or a job snapshot), so 1 MiB is generous headroom.
const maxJSONLLine = 1 << 20

// ScanJSONL streams every line of the JSONL file at path to fn, in file
// order. A missing file is an empty file, not an error. Malformed lines
// (torn tail writes) are the caller's to detect and skip — fn receives
// the raw bytes of every line.
func ScanJSONL(path string, fn func(line []byte)) error {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("utility: scan jsonl: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxJSONLLine)
	for sc.Scan() {
		fn(sc.Bytes())
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("utility: scan jsonl: %w", err)
	}
	return nil
}

// ReplaceJSONL atomically replaces the file at path with the given
// marshalled lines (each without a trailing newline). The rewrite goes
// through a temp file in the same directory — chmodded to 0644 so
// cross-process readers keep access — fsynced, then renamed over the
// original. Callers must ensure no other process is appending to the
// path while it runs; records written between read and rename are lost.
func ReplaceJSONL(path string, lines [][]byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("utility: replace jsonl: %w", err)
	}
	// CreateTemp makes the file 0600; restore the permissions append
	// created the original with, or cross-process readers lose it.
	err = tmp.Chmod(0o644)
	if err == nil {
		w := bufio.NewWriter(tmp)
		for _, line := range lines {
			w.Write(line)
			w.WriteByte('\n')
		}
		if err = w.Flush(); err == nil {
			err = tmp.Sync()
		}
	}
	// The temp file is closed once, whatever happened above, then either
	// renamed over the original or, on any failure, removed.
	if err = errors.Join(err, tmp.Close()); err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("utility: replace jsonl: %w", errors.Join(err, os.Remove(tmp.Name())))
	}
	return nil
}

// AppendFile is a lazily-opened, mutex-serialised append handle for one
// JSONL file. It cooperates with ReplaceJSONL-based compaction: Close
// retires the current handle, and the next Append transparently reopens
// the (possibly replaced) path. The caller must serialise the
// Close-then-ReplaceJSONL sequence against its own Appends (as
// Store.Compact and valserve.Journal do with their mutexes) — an Append
// interleaved between the two would reopen and write the unlinked
// original, and the record would vanish with the rename.
type AppendFile struct {
	path string

	mu sync.Mutex
	f  *os.File
}

// NewAppendFile prepares an append handle for path; the file is not
// opened (or created) until the first Append.
func NewAppendFile(path string) *AppendFile {
	return &AppendFile{path: path}
}

// Path returns the file path appends go to.
func (a *AppendFile) Path() string { return a.path }

// Append marshals v and durably appends it as one JSONL line: one encode
// plus one write syscall on a long-lived handle.
func (a *AppendFile) Append(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.f == nil {
		f, err := os.OpenFile(a.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		a.f = f
	}
	_, err = a.f.Write(line)
	return err
}

// Close retires the current handle. The AppendFile stays usable: a later
// Append reopens the path — this is how callers swap the underlying file
// (compaction) without racing in-flight appends into the unlinked inode.
func (a *AppendFile) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.f == nil {
		return nil
	}
	err := a.f.Close()
	a.f = nil
	return err
}
