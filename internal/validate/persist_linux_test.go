package validate

import (
	"bytes"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"
)

// TestSaveFailingMidWriteKeepsOldFile makes the kernel fail the save's
// writes after k bytes (RLIMIT_FSIZE: no write may grow a file past k)
// and requires what the callers of LoadRule and LoadRuleSet depend on:
// the previous file is still there, byte for byte, with no temp sibling
// beside it. Linux-only because of how the fault is injected; the save
// order itself is frame.SaveAtomic's and is tested there on every
// platform.
func TestSaveFailingMidWriteKeepsOldFile(t *testing.T) {
	longer := dateRule()
	longer.Strategy = "a strategy name long enough to make the new file the larger of the two"
	set := NewRuleSet()
	set.Add("date", longer)
	for name, c := range map[string]struct{ old, next func(string) error }{
		"rule":    {dateRule().Save, longer.Save},
		"ruleset": {NewRuleSet().Save, set.Save},
	} {
		dir := t.TempDir()
		path := filepath.Join(dir, "rules.json")
		if err := c.old(path); err != nil {
			t.Fatal(err)
		}
		old, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []uint64{0, 1, uint64(len(old)) / 2, uint64(len(old))} {
			if err := withFileSizeLimit(t, k, func() error { return c.next(path) }); err == nil {
				t.Fatalf("%s k=%d: the save did not fail", name, k)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, old) {
				t.Fatalf("%s k=%d: a failed save left %d bytes where the %d-byte previous file was", name, k, len(got), len(old))
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 1 {
				t.Fatalf("%s k=%d: a failed save left %d files behind", name, k, len(entries))
			}
		}
	}
}

// withFileSizeLimit runs fn while no file in this process may grow past
// limit bytes. SIGXFSZ is ignored meanwhile, so the write that hits the
// limit returns EFBIG instead of killing the test binary.
func withFileSizeLimit(t *testing.T, limit uint64, fn func() error) error {
	t.Helper()
	signal.Ignore(syscall.SIGXFSZ)
	defer signal.Reset(syscall.SIGXFSZ)
	var saved syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &saved); err != nil {
		t.Skipf("cannot read RLIMIT_FSIZE: %v", err)
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: limit, Max: saved.Max}); err != nil {
		t.Skipf("cannot lower RLIMIT_FSIZE: %v", err)
	}
	defer func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &saved); err != nil {
			t.Fatalf("cannot restore RLIMIT_FSIZE: %v", err)
		}
	}()
	return fn()
}
