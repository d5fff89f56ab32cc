package lint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// The on-disk fact cache of the module runner (mcs-vet -cache/-nocache).
// One entry per package, keyed by a content hash over the tool
// identity, the package's source bytes, and — recursively — the hashes
// of its in-module dependencies, so any edit invalidates exactly the
// packages downstream of it. A warm run with a full hit set replays
// facts, diagnostics and ignore audits from disk without parsing or
// type-checking a single file, which is what makes the VetWallTime warm
// column in cmd/mcs-bench collapse.

// cacheSchema versions the entry layout; bumping it orphans (never
// corrupts) old entries, since it participates in the key.
const cacheSchema = 1

// A cacheEntry is the replayable result of analyzing one package: the
// facts it exported, and the diagnostics and ignore-directive audit of
// its analysis and external-test units.
type cacheEntry struct {
	Schema      int          `json:"schema"`
	Package     string       `json:"package"`
	Facts       []wireFact   `json:"facts,omitempty"`
	Diagnostics []Diagnostic `json:"diagnostics,omitempty"`
	Ignores     []IgnoreInfo `json:"ignores,omitempty"`
}

// DefaultCacheDir returns the fact-cache directory used when the
// runner is not given an explicit one: <user cache dir>/mcs-vet.
func DefaultCacheDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("lint: resolving cache dir: %w", err)
	}
	return filepath.Join(base, "mcs-vet"), nil
}

// readCacheEntry loads the entry for key, reporting ok=false on any
// miss, decode failure or schema mismatch (a stale or torn entry is a
// miss, never an error).
func readCacheEntry(dir, key string) (*cacheEntry, bool) {
	data, err := os.ReadFile(filepath.Join(dir, key+".json"))
	if err != nil {
		return nil, false
	}
	var e cacheEntry
	if json.Unmarshal(data, &e) != nil || e.Schema != cacheSchema {
		return nil, false
	}
	return &e, true
}

// writeCacheEntry stores e under key atomically (write-to-temp then
// rename), so concurrent runs sharing a cache directory can only ever
// observe complete entries.
func writeCacheEntry(dir, key string, e *cacheEntry) error {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, key+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, key+".json"))
}

// toolID fingerprints everything that determines analysis output apart
// from the source itself: the executable, the cache schema, and the
// analyzer suite with its fact vocabulary. It is mixed into every
// cache key, so swapping analyzers or rebuilding the tool invalidates
// the cache wholesale.
func toolID(analyzers []*Analyzer) string {
	h := sha256.New()
	fmt.Fprintf(h, "mcs-vet schema %d exe %s\n", cacheSchema, executableHash())
	names := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		name := a.Name
		for _, f := range a.FactTypes {
			name += "+" + factTypeName(f)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintln(h, n)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// executableHash hashes the running binary, so a rebuilt tool (with
// changed analyzer logic) never replays its predecessor's entries.
func executableHash() string {
	exe, err := os.Executable()
	if err == nil {
		if f, err := os.Open(exe); err == nil {
			defer f.Close()
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				return fmt.Sprintf("%x", h.Sum(nil)[:16])
			}
		}
	}
	return "unknown"
}

// contentHash builds a package content hash from length-prefixed
// records, so no concatenation of fields can collide with another.
func contentHash(tool, pkgPath string, files map[string][]byte, depHashes map[string]string) string {
	h := sha256.New()
	rec := func(parts ...[]byte) {
		for _, p := range parts {
			var n [8]byte
			binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
			h.Write(n[:])
			h.Write(p)
		}
	}
	rec([]byte(tool), []byte(pkgPath))
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rec([]byte(name), files[name])
	}
	deps := make([]string, 0, len(depHashes))
	for dep := range depHashes {
		deps = append(deps, dep)
	}
	sort.Strings(deps)
	for _, dep := range deps {
		rec([]byte(dep), []byte(depHashes[dep]))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}
