package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
)

// defaultSeed and heldOutSeed are the seeds whose output digests are
// recorded in testdata/digests.json. Every other seed gets structural
// checks only.
const (
	defaultSeed = 1
	heldOutSeed = 9001
)

//go:embed testdata/digests.json
var digestFile []byte

// digestSet maps section ("<workload>/<seed>", or "<workload>/*" for a
// seed-independent workload) to operation key to output digest.
type digestSet map[string]map[string]string

// recorder checks operation outputs against the recorded digests and,
// when recording, collects them.
type recorder struct {
	section   string
	want      map[string]string
	got       map[string]string
	recording bool
}

func newRecorder(workload string, seed uint64, recording bool) (*recorder, error) {
	var all digestSet
	if err := json.Unmarshal(digestFile, &all); err != nil {
		return nil, fmt.Errorf("decoding embedded digests: %w", err)
	}
	section := fmt.Sprintf("%s/%d", workload, seed)
	if seedIndependent[workload] {
		section = workload + "/*"
	}
	return &recorder{section: section, want: all[section], got: map[string]string{}, recording: recording}, nil
}

// seedIndependent lists workloads whose outputs do not depend on the
// seed, so their digests apply to every seed.
var seedIndependent = map[string]bool{"repro-all": true}

// digest is a short content hash of an operation's output.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:6])
}

// digestJSON hashes v's JSON encoding.
func digestJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// verify compares one operation's output digest with the recorded one.
// Keys without a recorded digest pass (structural checks still apply).
func (r *recorder) verify(key, got string) error {
	if r.recording {
		r.got[key] = got
	}
	if want, ok := r.want[key]; ok && want != got {
		return fmt.Errorf("output digest %s, recorded %s", got, want)
	}
	return nil
}

// recorded reports how many digests this run can be checked against.
func (r *recorder) recorded() int { return len(r.want) }

// save merges the collected digests into the file at path.
func (r *recorder) save(path string) error {
	all := digestSet{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &all); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	all[r.section] = r.got
	b, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// commitID names the build: the VCS revision stamped into the binary
// when there is one, and always a digest of the Go sources it was built
// from (a checkout without git history still gets a stable name).
func commitID() string {
	rev := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					rev += "+dirty"
				}
			}
		}
	}
	return rev + " source_sha256=" + sourceDigest(".")
}

// sourceDigest hashes every .go and go.mod file under root, in path
// order, skipping build output and hidden directories.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
