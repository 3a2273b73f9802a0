package frame

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// SaveAtomic replaces the file at path with what write produces, or
// leaves it untouched: the bytes go to a temp sibling that is flushed,
// synced and closed before it is renamed over path, and the directory
// is synced after, so both after an error and after a power cut the
// path holds either the whole old file or the whole new one. A failed
// save removes its temp file.
func SaveAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("frame: saving %s: %w", path, err)
	}
	bw := bufio.NewWriter(tmp)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		// CreateTemp's 0600 is for secrets; these are ordinary data files.
		err = tmp.Chmod(0o644)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = tmp.Close()
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err == nil {
		err = SyncDir(dir)
	}
	if err != nil {
		// The temp file is being discarded: its close and remove errors
		// cannot outrank the one already being returned.
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("frame: saving %s: %w", path, err)
	}
	return nil
}

// SyncDir makes the directory's entries durable: a created, renamed or
// removed file is only crash-safe once its directory is synced.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("frame: syncing directory: %w", err)
	}
	defer d.Close() // read-only handle: nothing a close could lose
	if err := d.Sync(); err != nil {
		return fmt.Errorf("frame: syncing directory %s: %w", dir, err)
	}
	return nil
}
