package utility

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"fedshap/internal/combin"
	"fedshap/internal/resilience"
)

func countLines(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		n++
	}
	return n
}

// TestStoreStats checks the metrics export counts only the store's own
// fingerprint files, by metadata alone.
func TestStoreStats(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	empty, err := st.Stats()
	if err != nil || empty.Fingerprints != 0 || empty.Bytes != 0 {
		t.Fatalf("empty store stats = %+v (%v), want zeros", empty, err)
	}
	if err := st.Append("deadbeef", combin.NewCoalition(0), 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("cafebabe", combin.NewCoalition(1), 2); err != nil {
		t.Fatal(err)
	}
	// A foreign .jsonl in the cache dir (like a misplaced journal) is not
	// counted: the store only owns valid fingerprint files.
	if err := os.WriteFile(filepath.Join(dir, "not.a.fingerprint.jsonl"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprints != 2 || got.Bytes == 0 {
		t.Errorf("stats = %+v, want 2 fingerprints with nonzero bytes", got)
	}
}

// TestStoreCompact writes duplicate and malformed records, compacts, and
// checks the rewrite keeps exactly one (latest) record per coalition while
// the loaded cache is unchanged.
func TestStoreCompact(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const fp = "deadbeef"
	a, b := combin.NewCoalition(0), combin.NewCoalition(0, 1)
	// A superseded record for a, a duplicate for b, and a torn tail.
	for _, rec := range []struct {
		s combin.Coalition
		u float64
	}{{a, 0.1}, {b, 0.5}, {a, 0.7}, {b, 0.5}} {
		if err := st.Append(fp, rec.s, rec.u); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, fp+".jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"lo":3,"u":0.9`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	kept, dropped, err := st.Compact(fp)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 2 || dropped != 3 {
		t.Errorf("Compact = (%d kept, %d dropped), want (2, 3)", kept, dropped)
	}
	if got := countLines(t, path); got != 2 {
		t.Errorf("compacted file has %d lines, want 2", got)
	}
	entries, err := st.Load(fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[a] != 0.7 || entries[b] != 0.5 {
		t.Errorf("entries after compact = %v", entries)
	}

	// Idempotent: a clean file is left alone.
	if kept, dropped, err = st.Compact(fp); err != nil || kept != 2 || dropped != 0 {
		t.Errorf("second Compact = (%d, %d, %v), want (2, 0, nil)", kept, dropped, err)
	}
	// A missing fingerprint is an empty no-op, and traversal stays guarded.
	if kept, dropped, err = st.Compact("0000"); err != nil || kept != 0 || dropped != 0 {
		t.Errorf("Compact(missing) = (%d, %d, %v)", kept, dropped, err)
	}
	if _, _, err := st.Compact("../evil"); err == nil {
		t.Error("Compact accepted a traversal fingerprint")
	}
}

// TestStoreCompactWithOpenAppendHandle compacts while the store holds an
// open append handle, then appends again: the new record must land in the
// compacted file, not a stale unlinked one.
func TestStoreCompactWithOpenAppendHandle(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const fp = "cafe0123"
	a := combin.NewCoalition(2)
	if err := st.Append(fp, a, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(fp, a, 2.0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Compact(fp); err != nil {
		t.Fatal(err)
	}
	b := combin.NewCoalition(3)
	if err := st.Append(fp, b, 3.0); err != nil {
		t.Fatal(err)
	}
	entries, err := st.Load(fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[a] != 2.0 || entries[b] != 3.0 {
		t.Errorf("entries = %v, want {a:2, b:3}", entries)
	}
}

// TestStorePendingWritesDrainInOrder: utilities whose write failed wait
// in the pending buffer, and an append after the disk heals still only
// queues behind them; FlushPending drains the backlog, so records land in
// production order and Close reports no stale fault.
func TestStorePendingWritesDrainInOrder(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Fault = &resilience.Hook{}
	const fp = "beef4567"
	st.Fault.Set(func(string) error { return errors.New("induced: disk full") })
	for i := 0; i < 2; i++ {
		if err := st.Append(fp, combin.NewCoalition(i), float64(i)); err == nil {
			t.Fatalf("append %d succeeded on a failing disk", i)
		}
	}
	if n := st.PendingWrites(); n != 2 {
		t.Fatalf("PendingWrites() = %d on a failing disk, want 2", n)
	}
	st.Fault.Set(nil)
	if err := st.Append(fp, combin.NewCoalition(2), 2); err == nil {
		t.Fatal("append behind a backlog returned no error; want the latched one")
	}
	if n := st.PendingWrites(); n != 3 {
		t.Fatalf("PendingWrites() = %d after an append behind the backlog, want 3", n)
	}
	if n, err := st.FlushPending(); n != 3 || err != nil {
		t.Fatalf("FlushPending() = %d, %v; want 3, nil", n, err)
	}
	if n := st.PendingWrites(); n != 0 {
		t.Fatalf("PendingWrites() = %d after the flush, want 0", n)
	}
	data, err := os.ReadFile(filepath.Join(dir, fp+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if want := "{\"lo\":1,\"u\":0}\n{\"lo\":2,\"u\":1}\n{\"lo\":4,\"u\":2}\n"; string(data) != want {
		t.Errorf("store file:\n%s\nwant, in production order:\n%s", data, want)
	}
	if err := st.Close(); err != nil {
		t.Errorf("Close after the backlog drained: %v", err)
	}
}

// TestStoreCompactAll compacts every fingerprint in the directory at once.
func TestStoreCompactAll(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := combin.NewCoalition(1)
	for _, fp := range []string{"aaaa", "bbbb"} {
		for i := 0; i < 3; i++ {
			if err := st.Append(fp, s, float64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	kept, dropped, err := st.CompactAll()
	if err != nil {
		t.Fatal(err)
	}
	if kept != 2 || dropped != 4 {
		t.Errorf("CompactAll = (%d kept, %d dropped), want (2, 4)", kept, dropped)
	}
}

// openAppendHandles counts the store's append handles with an open file.
func openAppendHandles(st *Store) (handles, open int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, f := range st.files.files {
		f.mu.Lock()
		if f.f != nil {
			open++
		}
		f.mu.Unlock()
	}
	return len(st.files.files), open
}

// TestStoreBoundsOpenAppendHandles writes to 2,000 fingerprints, twice
// over: the store never holds more than maxOpenAppends handles, an
// evicted fingerprint reopens its file on its next append, and records,
// Load and Compact are what they would be with every handle kept open.
func TestStoreBoundsOpenAppendHandles(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	const fps = 2000
	fp := func(i int) string { return fmt.Sprintf("fp%04d", i) }
	a, b := combin.NewCoalition(0), combin.NewCoalition(1, 2)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < fps; i++ {
			if err := st.Append(fp(i), a, float64(i)); err != nil {
				t.Fatal(err)
			}
			if pass == 1 {
				if err := st.Append(fp(i), b, -float64(i)); err != nil {
					t.Fatal(err)
				}
			}
			if handles, open := openAppendHandles(st); handles > maxOpenAppends || open > maxOpenAppends {
				t.Fatalf("after %d fingerprints: %d handles, %d open; bound %d", i+1, handles, open, maxOpenAppends)
			}
		}
	}
	if handles, open := openAppendHandles(st); handles != maxOpenAppends || open != maxOpenAppends {
		t.Errorf("%d handles, %d open after the writes; want the %d most recent", handles, open, maxOpenAppends)
	}
	// fp(0) was evicted long ago, fp(fps-1) holds an open handle.
	for _, i := range []int{0, fps / 2, fps - 1} {
		path := filepath.Join(dir, fp(i)+".jsonl")
		if got := countLines(t, path); got != 3 {
			t.Errorf("%s has %d records, want 3", fp(i), got)
		}
		entries, err := st.Load(fp(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 2 || entries[a] != float64(i) || entries[b] != -float64(i) {
			t.Errorf("%s entries = %v", fp(i), entries)
		}
		if kept, dropped, err := st.Compact(fp(i)); err != nil || kept != 2 || dropped != 1 {
			t.Errorf("Compact(%s) = (%d, %d, %v), want (2, 1, nil)", fp(i), kept, dropped, err)
		}
		if err := st.Append(fp(i), a, 7); err != nil {
			t.Fatal(err)
		}
		if got := countLines(t, path); got != 3 {
			t.Errorf("%s has %d records after compaction and one append, want 3", fp(i), got)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if handles, open := openAppendHandles(st); handles != 0 || open != 0 {
		t.Errorf("Close left %d handles, %d open", handles, open)
	}
}
