package utility

import (
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"fedshap/internal/combin"
	"fedshap/internal/resilience"
)

// Store is a disk-backed coalition-utility cache shared across processes
// and jobs: one append-only JSON-lines file per problem fingerprint. Every
// coalition evaluation trains a full FL model, so persisted utilities are
// the expensive asset the valuation service reuses — a resubmitted job
// loads its fingerprint's file and finishes with zero fresh evaluations.
//
// The append-only format makes concurrent write-through crash-safe: a torn
// final line is skipped on load, and duplicate records (two processes
// evaluating the same coalition) are harmless because utilities are
// deterministic per fingerprint. The JSONL mechanics (lenient scan,
// atomic rewrite, reopen-after-compaction append handles) are shared with
// the valuation service's job journal — see jsonl.go.
type Store struct {
	dir string

	// Fault, when set, is consulted before every durable write — the
	// injectable seam tests and the chaos harness use to simulate a
	// full or failing disk. Set it before the store is shared between
	// goroutines.
	Fault *resilience.Hook

	mu      sync.Mutex
	files   appendFiles    // recently used append handles; guarded by mu
	err     error          // first write error, reported by Close; guarded by mu
	pending []pendingWrite // utilities buffered while the disk fails; guarded by mu
	// npending is len(pending), stored under mu and read without it:
	// the valuation service derives its degraded state from it on every
	// job event, which must not wait behind a Compact holding mu.
	npending atomic.Int64
}

// pendingWrite is one utility that could not be persisted when it was
// produced. Buffering instead of dropping is what makes degraded mode
// lossless: the buffer is replayed once writes succeed again, so a
// degrade/restore cycle leaves the cache exactly as if the disk had
// never failed.
type pendingWrite struct {
	fp  string
	rec storeRecord
}

// storeRecord is the JSONL schema for one persisted utility.
type storeRecord struct {
	Lo uint64  `json:"lo"`
	Hi uint64  `json:"hi,omitempty"`
	U  float64 `json:"u"`
}

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("utility: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) path(fingerprint string) string {
	return filepath.Join(st.dir, fingerprint+".jsonl")
}

// maxOpenAppends bounds the append handles a store keeps open. A job
// writes through to one fingerprint, so a daemon's hot set is about as
// large as its concurrent jobs; a bound well past that, and far under the
// common 1,024-descriptor soft limit, never reopens a running job's file
// and keeps a long-lived daemon that has seen thousands of fingerprints
// from running out of descriptors.
const maxOpenAppends = 64

// appendFiles holds the append handles of the most recently written
// fingerprints, at most maxOpenAppends, least recently used first. Writing
// to a fingerprint past the bound closes the least recently used handle;
// its file reopens on its next append.
type appendFiles struct {
	fps   []string
	files []*AppendFile // files[i] appends to fps[i]'s file
}

// get returns fingerprint's handle, moved to the most recent end, adding
// one for path(fingerprint) (unopened until its first Append) on first
// use. err is the close error of a handle evicted to make room.
func (fs *appendFiles) get(fingerprint string, path func(string) string) (f *AppendFile, err error) {
	i := fs.index(fingerprint)
	if i >= 0 {
		f = fs.files[i]
		fs.remove(i)
	} else {
		if len(fs.fps) == maxOpenAppends {
			err = fs.files[0].Close()
			fs.remove(0)
		}
		f = NewAppendFile(path(fingerprint))
	}
	fs.fps = append(fs.fps, fingerprint)
	fs.files = append(fs.files, f)
	return f, err
}

// index returns fingerprint's position, or -1. It searches from the most
// recent end, where a running job's fingerprint is.
func (fs *appendFiles) index(fingerprint string) int {
	for i := len(fs.fps) - 1; i >= 0; i-- {
		if fs.fps[i] == fingerprint {
			return i
		}
	}
	return -1
}

// remove drops entry i without closing its handle.
func (fs *appendFiles) remove(i int) {
	fs.fps = slices.Delete(fs.fps, i, i+1)
	fs.files = slices.Delete(fs.files, i, i+1)
}

// checkFingerprint guards against path traversal via untrusted fingerprints.
func checkFingerprint(fp string) error {
	if fp == "" || strings.ContainsAny(fp, "/\\.") {
		return fmt.Errorf("utility: invalid fingerprint %q", fp)
	}
	return nil
}

// Load reads every persisted utility for a fingerprint. A missing file is
// an empty cache, not an error; malformed lines (torn tail writes) are
// skipped.
func (st *Store) Load(fingerprint string) (map[combin.Coalition]float64, error) {
	if err := checkFingerprint(fingerprint); err != nil {
		return nil, err
	}
	out := make(map[combin.Coalition]float64)
	err := ScanJSONL(st.path(fingerprint), func(line []byte) {
		var rec storeRecord
		if json.Unmarshal(line, &rec) != nil {
			return
		}
		out[combin.FromWords(rec.Lo, rec.Hi)] = rec.U
	})
	if err != nil {
		return nil, fmt.Errorf("utility: load store: %w", err)
	}
	return out, nil
}

// Append durably records one utility under a fingerprint. The append
// handle stays open while the fingerprint is among the maxOpenAppends
// most recently written, so per-evaluation overhead is one encode + write
// syscall. The write happens under the store mutex, serialised against
// Compact's handle-retire-then-rename — an append can never slip in
// between and land in the unlinked pre-compaction file.
//
// A failed write is buffered, not dropped (see PendingWrites), and is
// returned. While the buffer holds anything, a new utility joins its
// tail without a write attempt and Append returns the latched error:
// only FlushPending drains a backlog, so utilities reach the disk in
// production order and PendingWrites stays non-zero from the first
// failed write until a FlushPending succeeds.
func (st *Store) Append(fingerprint string, s combin.Coalition, u float64) error {
	if err := checkFingerprint(fingerprint); err != nil {
		return err
	}
	lo, hi := s.Words()
	_, err := st.flush(pendingWrite{fp: fingerprint, rec: storeRecord{Lo: lo, Hi: hi, U: u}})
	return err
}

// FlushPending replays utilities buffered while the disk was failing,
// in production order. On the first failure it stops, keeping the
// unwritten tail for the next probe. It returns the number of records
// flushed.
func (st *Store) FlushPending() (int, error) { return st.flush() }

// flush is the one write path. With next set (Append) it writes next
// unless a backlog is waiting, in which case next only queues behind it;
// without (FlushPending) it writes the backlog out in order. Writes go
// through the fault hook and the per-fingerprint append handles and stop
// at the first failure, keeping the unwritten tail. Every write failure
// is latched for Close — callers on the evaluation hot path ignore
// per-record errors, since persistence must not fail a valuation — and a
// flush that empties the backlog clears the latch: the disk has caught
// up, so Close should not report a stale fault.
func (st *Store) flush(next ...pendingWrite) (written int, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	backlog := len(st.pending)
	st.pending = append(st.pending, next...)
	if backlog > 0 && len(next) > 0 {
		st.npending.Store(int64(len(st.pending)))
		return 0, st.err
	}
	for _, p := range st.pending {
		if err = st.Fault.Check("store.append"); err != nil {
			break
		}
		f, cerr := st.files.get(p.fp, st.path)
		if cerr != nil {
			st.err = cmp.Or(st.err, cerr)
		}
		if err = f.Append(p.rec); err != nil {
			break
		}
		written++
	}
	st.pending = append(st.pending[:0], st.pending[written:]...)
	st.npending.Store(int64(len(st.pending)))
	switch {
	case err != nil:
		st.err = cmp.Or(st.err, err)
	case backlog > 0:
		st.err = nil
	}
	return written, err
}

// PendingWrites reports the number of utilities waiting in the
// degraded-mode buffer. It takes no lock.
func (st *Store) PendingWrites() int { return int(st.npending.Load()) }

// Attach layers the store under an oracle for one problem fingerprint:
// persisted utilities warm the cache without charging the budget, and
// every fresh evaluation is written through. It returns the number of
// warmed coalitions.
func (st *Store) Attach(o *Oracle, fingerprint string) (int, error) {
	entries, err := st.Load(fingerprint)
	if err != nil {
		return 0, err
	}
	warmed := o.Warm(entries)
	o.OnFresh(func(s combin.Coalition, u float64, _ int) {
		//fedvallint:allow(durability) persistence must not fail a valuation; Append buffers what it could not write and latches the error
		_ = st.Append(fingerprint, s, u) // surfaced by PendingWrites and Close
	})
	return warmed, nil
}

// StoreStats summarises a store's on-disk footprint.
type StoreStats struct {
	// Fingerprints is the number of per-problem cache files.
	Fingerprints int
	// Bytes is their total size on disk. Compaction shrinks it by
	// rewriting duplicate records (see Compact).
	Bytes int64
}

// fingerprintFiles enumerates the store-owned cache files: every *.jsonl
// in the directory whose basename is a valid fingerprint. Foreign .jsonl
// files (a misplaced journal, editor droppings) are not the store's to
// touch — this is the single definition of ownership shared by Stats and
// CompactAll.
func (st *Store) fingerprintFiles() ([]string, error) {
	paths, err := filepath.Glob(filepath.Join(st.dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	owned := paths[:0]
	for _, p := range paths {
		if checkFingerprint(strings.TrimSuffix(filepath.Base(p), ".jsonl")) == nil {
			owned = append(owned, p)
		}
	}
	return owned, nil
}

// Stats scans the store directory and reports its footprint — the export
// behind the valuation service's /metrics cache gauges. It deliberately
// reads only directory metadata, never file contents, so it stays cheap
// at GB-scale caches.
func (st *Store) Stats() (StoreStats, error) {
	paths, err := st.fingerprintFiles()
	if err != nil {
		return StoreStats{}, fmt.Errorf("utility: store stats: %w", err)
	}
	var out StoreStats
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			continue
		}
		out.Fingerprints++
		out.Bytes += fi.Size()
	}
	return out, nil
}

// Compact rewrites one fingerprint's JSONL file with a single line per
// coalition (the last record wins) and drops malformed lines, so
// long-lived caches stop growing unboundedly: duplicates accrue whenever
// several processes share a cache directory or a crash tears a write. The
// rewrite goes through a temp file and an atomic rename, so a concurrent
// crash leaves either the old or the new file, never a mix. It returns
// the records kept and the lines dropped; a missing file is (0, 0, nil).
//
// Compact assumes no *other process* is appending to the fingerprint
// while it runs: records another process writes between the read and the
// rename are lost, and that process's open append handle is left pointing
// at the unlinked file. Compact at startup or shutdown (Manager.Close
// does the latter, after its jobs have drained), not while a shared cache
// directory is live.
func (st *Store) Compact(fingerprint string) (kept, dropped int, err error) {
	if err := checkFingerprint(fingerprint); err != nil {
		return 0, 0, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	path := st.path(fingerprint)
	entries := make(map[combin.Coalition]float64)
	var order []combin.Coalition
	lines := 0
	scanErr := ScanJSONL(path, func(line []byte) {
		lines++
		var rec storeRecord
		if json.Unmarshal(line, &rec) != nil {
			return
		}
		s := combin.FromWords(rec.Lo, rec.Hi)
		if _, seen := entries[s]; !seen {
			order = append(order, s)
		}
		entries[s] = rec.U
	})
	if scanErr != nil {
		err := fmt.Errorf("utility: compact: %w", scanErr)
		st.err = cmp.Or(st.err, err)
		return 0, 0, err
	}
	kept = len(entries)
	dropped = lines - kept
	if lines == 0 || dropped == 0 {
		return kept, 0, nil
	}

	rows := make([][]byte, 0, len(order))
	for _, s := range order {
		lo, hi := s.Words()
		line, err := json.Marshal(storeRecord{Lo: lo, Hi: hi, U: entries[s]})
		if err == nil {
			rows = append(rows, line)
		}
	}
	// Retire the open append handle before swapping the file underneath
	// it; the next Append reopens against the compacted file.
	if i := st.files.index(fingerprint); i >= 0 {
		st.files.files[i].Close()
	}
	if rerr := ReplaceJSONL(path, rows); rerr != nil {
		// Remembered like write errors: callers on background sweeps drop
		// per-run errors, so Close is where a failing disk surfaces.
		err := fmt.Errorf("utility: compact: %w", rerr)
		st.err = cmp.Or(st.err, err)
		return kept, dropped, err
	}
	return kept, dropped, nil
}

// CompactAll compacts every fingerprint file in the store's directory,
// summing the kept/dropped counts. The first error is returned after the
// remaining files are still attempted.
func (st *Store) CompactAll() (kept, dropped int, err error) {
	paths, globErr := st.fingerprintFiles()
	if globErr != nil {
		return 0, 0, fmt.Errorf("utility: compact all: %w", globErr)
	}
	for _, p := range paths {
		k, d, cerr := st.Compact(strings.TrimSuffix(filepath.Base(p), ".jsonl"))
		kept += k
		dropped += d
		if err == nil && cerr != nil {
			err = cerr
		}
	}
	return kept, dropped, err
}

// Close flushes and closes every open fingerprint file, returning the
// first write error encountered during the store's lifetime.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	// The handles close least recently used first, so which failure gets
	// latched as "first" follows the order of the writes.
	for _, f := range st.files.files {
		if err := f.Close(); err != nil {
			st.err = cmp.Or(st.err, err)
		}
	}
	st.files = appendFiles{}
	return st.err
}
