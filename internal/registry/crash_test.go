package registry

import (
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"autovalidate/internal/domain"
	"autovalidate/internal/frame"
)

// crashEnv selects TestSaveSurvivesProcessDeath's helper mode in a child
// process: "mid-write" dies halfway through writing the new bytes,
// "after-save" dies as soon as the save returns. crashPathEnv names the
// file the child saves over.
const (
	crashEnv     = "AUTOVALIDATE_SAVE_CRASH"
	crashPathEnv = "AUTOVALIDATE_SAVE_CRASH_PATH"
)

// crashRegistry builds a registry holding the named streams.
func crashRegistry(t *testing.T, names ...string) *Registry {
	t.Helper()
	r := New()
	for _, name := range names {
		if _, err := r.PutDomain(name, testRule(t, "<digit>{4}"), testOptions(), 0, domain.Detection{}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// saveCrashHelper is the child process: it never returns to the test
// framework, so nothing after its exit (no deferred cleanup, no temp
// removal) runs — as after a kill.
func saveCrashHelper(t *testing.T, mode, path string) {
	var next bytes.Buffer
	if err := crashRegistry(t, "orders", "refunds").Encode(&next); err != nil {
		t.Fatal(err)
	}
	err := frame.SaveAtomic(path, func(w io.Writer) error {
		if mode != "mid-write" {
			_, err := w.Write(next.Bytes())
			return err
		}
		half := next.Bytes()[:next.Len()/2]
		if _, err := w.Write(half); err != nil {
			return err
		}
		// Put the half on disk in the temp file, then die.
		if f, ok := w.(interface{ Flush() error }); ok {
			if err := f.Flush(); err != nil {
				return err
			}
		}
		os.Exit(3)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	os.Exit(0)
}

// runCrashHelper runs this test binary again in mode over path and
// returns its exit code.
func runCrashHelper(t *testing.T, mode, path string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestSaveSurvivesProcessDeath$")
	cmd.Env = append(os.Environ(), crashEnv+"="+mode, crashPathEnv+"="+path)
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &exit):
		if exit.ExitCode() != 3 {
			t.Logf("helper output:\n%s", out)
		}
		return exit.ExitCode()
	default:
		t.Fatalf("running the helper: %v", err)
		return -1
	}
}

// TestSaveSurvivesProcessDeath kills a process inside frame.SaveAtomic:
// halfway through writing, the path must still hold the old file, whole
// and loadable, and the temp file the dead process left must not break
// the next save; killed right after the save returns, the path must
// hold the new file.
func TestSaveSurvivesProcessDeath(t *testing.T) {
	if mode := os.Getenv(crashEnv); mode != "" {
		saveCrashHelper(t, mode, os.Getenv(crashPathEnv))
		return
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "streams.avr")
	if err := crashRegistry(t, "orders").Save(path); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if code := runCrashHelper(t, "mid-write", path); code != 3 {
		t.Fatalf("mid-write helper exited %d, want 3 (killed inside write)", code)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("after a death mid-write the path holds %d bytes (err %v), want the old %d", len(got), err, len(old))
	}
	reg, err := Load(path)
	if err != nil {
		t.Fatalf("loading the old file after a death mid-write: %v", err)
	}
	if names := reg.Names(); !reflect.DeepEqual(names, []string{"orders"}) {
		t.Fatalf("old file loads streams %v, want [orders]", names)
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, "streams.avr.tmp*"))
	if err != nil || len(leftovers) != 1 {
		t.Fatalf("temp siblings after a death mid-write: %v (err %v), want the dead save's one", leftovers, err)
	}
	if fi, err := os.Stat(leftovers[0]); err != nil || fi.Size() == 0 {
		t.Fatalf("the dead save's temp file holds none of the bytes written before the death (err %v)", err)
	}

	if err := crashRegistry(t, "orders", "payments").Save(path); err != nil {
		t.Fatalf("saving beside a dead save's temp file: %v", err)
	}
	if reg, err := Load(path); err != nil || !reflect.DeepEqual(reg.Names(), []string{"orders", "payments"}) {
		t.Fatalf("the save after the death: err %v, want streams [orders payments]", err)
	}

	if code := runCrashHelper(t, "after-save", path); code != 0 {
		t.Fatalf("after-save helper exited %d, want 0", code)
	}
	reg, err = Load(path)
	if err != nil {
		t.Fatalf("loading the file a dead process saved: %v", err)
	}
	if names := reg.Names(); !reflect.DeepEqual(names, []string{"orders", "refunds"}) {
		t.Fatalf("after a death right after the save the path loads streams %v, want [orders refunds]", names)
	}
}
