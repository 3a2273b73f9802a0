// Package buildinfo reports what binary is actually running — module
// version, VCS revision, and Go toolchain — from the build metadata
// the linker already embeds (debug.ReadBuildInfo). av version prints
// it (avbench and avlint behind -version), and the serving processes
// export it as the autovalidate_build_info gauge so a scrape can tell
// which revision each cluster member runs.
package buildinfo

import (
	"runtime"
	"runtime/debug"
)

// Info is the build identity of the running binary.
type Info struct {
	// Version is the module version ("(devel)" for local builds).
	Version string
	// Revision is the VCS commit hash, "" when built outside a checkout.
	Revision string
	// Modified reports uncommitted changes at build time.
	Modified bool
	// GoVersion is the toolchain that built the binary.
	GoVersion string
}

// Get reads the embedded build metadata. It never fails: binaries
// built without module info (e.g. plain `go test` harnesses) get
// "(devel)" and an empty revision.
func Get() Info {
	info := Info{Version: "(devel)", GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	if bi.Main.Version != "" {
		info.Version = bi.Main.Version
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info.Revision = s.Value
		case "vcs.modified":
			info.Modified = s.Value == "true"
		}
	}
	return info
}

// ShortRevision is the 12-character revision prefix, or "unknown".
func (i Info) ShortRevision() string {
	if i.Revision == "" {
		return "unknown"
	}
	if len(i.Revision) > 12 {
		return i.Revision[:12]
	}
	return i.Revision
}

// String renders the one-line version output.
func (i Info) String() string {
	s := i.Version + " (" + i.ShortRevision()
	if i.Modified {
		s += "+dirty"
	}
	return s + ", " + i.GoVersion + ")"
}
