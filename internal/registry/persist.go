package registry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"autovalidate/internal/core"
	"autovalidate/internal/domain"
	"autovalidate/internal/frame"
	"autovalidate/internal/validate"
)

// A registry file is one internal/frame artifact: magic "AVREG1\n", a
// JSON headerFile, then one checksummed section per stream holding a
// JSON streamFile. Payloads are JSON rather than gob because a Rule
// already defines a canonical JSON form (patterns serialize in the
// pattern notation and are re-parsed on load, which re-validates them).

const regMagic = "AVREG1\n"

// headerFile is the file header section.
type headerFile struct {
	NumStreams int `json:"num_streams"`
}

// versionFile is one persisted stream version. Domain was added after
// the format shipped; it is optional in both directions, so AVREG1
// files written before semantic domains existed load with a zero
// Detection and new files stay plain AVREG1.
type versionFile struct {
	Version         int               `json:"version"`
	Rule            *validate.Rule    `json:"rule"`
	Options         core.Options      `json:"options"`
	Domain          *domain.Detection `json:"domain,omitempty"`
	IndexGeneration uint64            `json:"index_generation"`
	Stale           bool              `json:"stale,omitempty"`
}

// streamFile is one stream's section: the whole version history.
type streamFile struct {
	Name     string        `json:"name"`
	Versions []versionFile `json:"versions"`
}

// maxSection bounds a single section read so a corrupt length prefix
// cannot drive a huge allocation; a rule history is kilobytes, not
// gigabytes.
const maxSection = 64 << 20

// Save writes the registry to path atomically and durably
// (frame.SaveAtomic): an interrupted save never truncates an existing
// good file. Streams are written in sorted name order so identical
// registries produce identical bytes.
func (r *Registry) Save(path string) error {
	if err := frame.SaveAtomic(path, r.Encode); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	return nil
}

// Encode writes the registry in the AVREG1 format to an arbitrary writer
// — the same bytes Save puts in a file, reusable as a network payload
// (the cluster ships the registry alongside the index snapshot).
func (r *Registry) Encode(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.streams))
	for name := range r.streams {
		names = append(names, name)
	}
	sort.Strings(names)
	payloads := make([][]byte, len(names))
	for i, name := range names {
		sf := streamFile{Name: name}
		for _, v := range r.streams[name].versions {
			vf := versionFile{
				Version:         v.Version,
				Rule:            v.Rule,
				Options:         v.Options,
				IndexGeneration: v.IndexGeneration,
				Stale:           v.Stale,
			}
			if v.Domain.Name != "" {
				dom := v.Domain
				vf.Domain = &dom
			}
			sf.Versions = append(sf.Versions, vf)
		}
		payload, err := json.Marshal(&sf)
		if err != nil {
			r.mu.RUnlock()
			return fmt.Errorf("registry: encoding stream %q: %w", name, err)
		}
		payloads[i] = payload
	}
	r.mu.RUnlock()

	head, err := json.Marshal(headerFile{NumStreams: len(names)})
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	if err := frame.Write(w, regMagic, head, payloads...); err != nil {
		return fmt.Errorf("registry: encoding: %w", err)
	}
	return nil
}

// Load reads a registry written by Save. Corrupt files — bad magic,
// truncated sections, checksum mismatches, undecodable payloads,
// inconsistent version numbering — return errors; Load never panics.
func Load(path string) (*Registry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	defer f.Close()
	return decode(path, f)
}

// Decode reads a registry from a stream of bytes written by Encode, with
// the same corruption guarantees as Load.
func Decode(r io.Reader) (*Registry, error) {
	return decode("stream", r)
}

func decode(path string, f io.Reader) (*Registry, error) {
	corrupt := func(format string, args ...any) error {
		return fmt.Errorf("registry: %s is corrupt: %w", path, fmt.Errorf(format, args...))
	}
	fr, err := frame.ReadMagic(bufio.NewReader(f), regMagic)
	if err != nil {
		return nil, fmt.Errorf("registry: %s is not a registry file: %w", path, err)
	}
	headBuf, err := fr.ReadHeader(maxSection)
	if err != nil {
		return nil, corrupt("%w", err)
	}
	var head headerFile
	if err := json.Unmarshal(headBuf, &head); err != nil {
		return nil, corrupt("undecodable header: %w", err)
	}
	if head.NumStreams < 0 || head.NumStreams > 1<<24 {
		return nil, corrupt("implausible stream count %d", head.NumStreams)
	}

	reg := New()
	for s := 0; s < head.NumStreams; s++ {
		payload, err := fr.ReadSection(maxSection)
		if err != nil {
			return nil, corrupt("%w", err)
		}
		var sf streamFile
		if err := json.Unmarshal(payload, &sf); err != nil {
			return nil, corrupt("undecodable stream %d: %w", s, err)
		}
		if sf.Name == "" || len(sf.Versions) == 0 {
			return nil, corrupt("stream %d has no name or no versions", s)
		}
		if _, dup := reg.streams[sf.Name]; dup {
			return nil, corrupt("duplicate stream %q", sf.Name)
		}
		rec := &record{versions: make([]Stream, 0, len(sf.Versions))}
		for i, v := range sf.Versions {
			if v.Version != i+1 {
				return nil, corrupt("stream %q version %d out of order (want %d)", sf.Name, v.Version, i+1)
			}
			if v.Rule == nil {
				return nil, corrupt("stream %q version %d has no rule", sf.Name, v.Version)
			}
			// Reloaded rules serve batches immediately after startup;
			// compile now rather than on the first checked batch.
			v.Rule.Precompile()
			s := Stream{
				Name:            sf.Name,
				Version:         v.Version,
				Rule:            v.Rule,
				Options:         v.Options,
				IndexGeneration: v.IndexGeneration,
				Stale:           v.Stale,
			}
			if v.Domain != nil {
				s.Domain = *v.Domain
			}
			rec.versions = append(rec.versions, s)
		}
		reg.streams[sf.Name] = rec
	}
	if err := fr.ReadEOF(); err != nil {
		return nil, corrupt("%w", err)
	}
	return reg, nil
}
