package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"mcspeedup/internal/par"
)

// The module runner behind `mcs-vet`: it discovers every package of
// the module itself, orders them by dependency, and analyzes
// independent packages in parallel over internal/par — with facts
// flowing from each package to its dependents, diagnostics emitted in
// an order that is byte-identical for every -workers count, and
// results replayed from the on-disk fact cache (cache.go) when a
// package and its dependency closure are unchanged.
//
// Each package contributes up to three units:
//
//   - a types unit: the library files, type-checked with function
//     bodies ignored — the cheap import view dependents check against
//     (and the escape hatch from test-induced import cycles: internal
//     test files never feed dependents);
//   - an analysis unit: library plus in-package _test.go files, fully
//     type-checked; the analyzers run here and facts are exported
//     under the package's import path;
//   - an external-test unit: the package p_test files, analyzed
//     separately under the import path <pkg>_test, consuming facts but
//     exporting none (nothing can import an external test package).
//
// Analyzers running under this runner must only export facts on
// objects of the package under analysis; the cache stores exactly
// those, keyed by a content hash over the package and its in-module
// dependency closure.

// ModuleOptions configures RunModule.
type ModuleOptions struct {
	// Workers bounds the number of packages analyzed concurrently
	// within one dependency level; <= 0 means one per CPU.
	Workers int
	// CacheDir is the fact-cache directory; empty means
	// DefaultCacheDir().
	CacheDir string
	// NoCache disables the on-disk cache entirely (every package is
	// re-analyzed; nothing is written).
	NoCache bool
}

// ModuleResult is the outcome of one module-wide run.
type ModuleResult struct {
	ModulePath  string
	Packages    []string // analyzed package import paths, sorted
	CacheHits   int      // packages replayed from the fact cache
	CacheMisses int      // packages (re-)analyzed
	Diagnostics []Diagnostic
	Ignores     []IgnoreInfo
}

// modPkg is one discovered package directory and its unit inputs.
type modPkg struct {
	path    string            // import path
	relDir  string            // directory relative to the module root
	files   map[string][]byte // file name -> source, all variants
	lib     []string          // sorted library file names
	intTest []string          // sorted in-package _test.go file names
	extTest []string          // sorted external (_test package) file names

	analysisDeps []string // in-module imports of the lib files (acyclic)
	testDeps     []string // extra in-module imports of the intTest files
	extDeps      []string // in-module imports of extTest files
	baseHash     string   // hash over lib+intTest and analysisDeps
	cacheKey     string   // baseHash extended with test-only inputs
	depth        int      // 1 + max depth over analysisDeps
	closure      map[string]bool
}

// RunModule analyzes every package of the module rooted at root.
func RunModule(root string, analyzers []*Analyzer, opts ModuleOptions) (*ModuleResult, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, goVersion, err := readGoMod(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := discoverPackages(root, modPath)
	if err != nil {
		return nil, err
	}
	order, err := topoOrder(pkgs)
	if err != nil {
		return nil, err
	}

	tool := toolID(analyzers)
	for _, p := range order { // topo order: dep hashes are ready
		hashPackage(tool, p, pkgs)
	}

	cacheDir := opts.CacheDir
	if !opts.NoCache && cacheDir == "" {
		if cacheDir, err = DefaultCacheDir(); err != nil {
			return nil, err
		}
	}

	res := &ModuleResult{ModulePath: modPath}
	store := NewFactStore()
	var misses []*modPkg
	var mu sync.Mutex // guards res.Diagnostics/res.Ignores during fan-out
	for _, p := range order {
		res.Packages = append(res.Packages, p.path)
		if !opts.NoCache {
			if e, ok := readCacheEntry(cacheDir, p.cacheKey); ok {
				res.CacheHits++
				store.addWire(e.Facts)
				res.Diagnostics = append(res.Diagnostics, e.Diagnostics...)
				res.Ignores = append(res.Ignores, e.Ignores...)
				continue
			}
		}
		res.CacheMisses++
		misses = append(misses, p)
	}
	sort.Strings(res.Packages)

	if len(misses) > 0 {
		tb := newTypesBuilder(root, goVersion, pkgs)
		workers := par.Workers(opts.Workers)
		for _, level := range scheduleLevels(misses, pkgs) {
			level := level
			err := par.ForEach(len(level), workers, func(i int) error {
				p := level[i]
				diags, ignores, err := analyzePackage(root, p, pkgs, tb, store, analyzers)
				if err != nil {
					return err
				}
				if !opts.NoCache {
					entry := &cacheEntry{
						Schema:      cacheSchema,
						Package:     p.path,
						Facts:       store.wire(p.path),
						Diagnostics: diags,
						Ignores:     ignores,
					}
					if err := writeCacheEntry(cacheDir, p.cacheKey, entry); err != nil {
						return fmt.Errorf("lint: writing cache entry for %s: %w", p.path, err)
					}
				}
				mu.Lock()
				res.Diagnostics = append(res.Diagnostics, diags...)
				res.Ignores = append(res.Ignores, ignores...)
				mu.Unlock()
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}

	SortDiagnostics(res.Diagnostics)
	sort.Slice(res.Ignores, func(i, j int) bool {
		a, b := res.Ignores[i], res.Ignores[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return res, nil
}

// readGoMod extracts the module path and go directive from root/go.mod.
func readGoMod(root string) (modPath, goVersion string, err error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", "", fmt.Errorf("lint: reading the module's go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok && modPath == "" {
			modPath = strings.Trim(strings.TrimSpace(rest), `"`)
		}
		if rest, ok := strings.CutPrefix(line, "go "); ok && goVersion == "" {
			goVersion = "go" + strings.TrimSpace(rest)
		}
	}
	if modPath == "" {
		return "", "", fmt.Errorf("lint: no module directive in %s", filepath.Join(root, "go.mod"))
	}
	return modPath, goVersion, nil
}

// discoverPackages walks the module tree, collecting every directory
// holding Go files. Nested modules (directories with their own go.mod),
// testdata trees, vendored code and hidden or underscore-prefixed
// entries are skipped, mirroring cmd/go's ./... pattern.
func discoverPackages(root, modPath string) (map[string]*modPkg, error) {
	pkgs := make(map[string]*modPkg)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == root {
				return nil
			}
			if name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a nested module
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		importPath := modPath
		if rel != "." {
			importPath = modPath + "/" + filepath.ToSlash(rel)
		}
		p := pkgs[importPath]
		if p == nil {
			p = &modPkg{path: importPath, relDir: rel, files: make(map[string][]byte)}
			pkgs[importPath] = p
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		p.files[name] = src
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Sorted order so the first classification error (a malformed
	// file) is the same one every run.
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if err := classifyFiles(pkgs[path], modPath); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// classifyFiles splits a package's files into the three units and
// scans their imports (a cheap ImportsOnly parse) for the in-module
// dependency graph.
func classifyFiles(p *modPkg, modPath string) error {
	fset := token.NewFileSet()
	names := make([]string, 0, len(p.files))
	for name := range p.files {
		names = append(names, name)
	}
	sort.Strings(names)
	analysisImports := make(map[string]bool)
	testImports := make(map[string]bool)
	extImports := make(map[string]bool)
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(p.relDir, name), p.files[name], parser.ImportsOnly)
		if err != nil {
			return err
		}
		isTest := strings.HasSuffix(name, "_test.go")
		isExt := isTest && strings.HasSuffix(f.Name.Name, "_test")
		imports := analysisImports
		switch {
		case isExt:
			p.extTest = append(p.extTest, name)
			imports = extImports
		case isTest:
			p.intTest = append(p.intTest, name)
			imports = testImports
		default:
			p.lib = append(p.lib, name)
		}
		for _, imp := range f.Imports {
			ip := strings.Trim(imp.Path.Value, `"`)
			if ip != p.path && (ip == modPath || strings.HasPrefix(ip, modPath+"/")) {
				imports[ip] = true
			}
		}
	}
	// Only library imports enter the acyclic dependency recursion:
	// in-package test files may import packages that import this one
	// (cmd/go's "p [p.test]" variant exists for the same reason), so
	// their extra imports get the same out-of-recursion treatment as
	// the external test unit's.
	for ip := range testImports { //lint:ignore determcheck set difference; the result is sorted below
		if analysisImports[ip] {
			delete(testImports, ip)
		}
	}
	p.analysisDeps = sortedKeys(analysisImports)
	p.testDeps = sortedKeys(testImports)
	p.extDeps = sortedKeys(extImports)
	return nil
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// topoOrder sorts packages dependency-first over analysisDeps (the
// acyclic graph: internal test files cannot import dependents), with
// ties broken by import path, and computes each package's depth and
// in-module dependency closure.
func topoOrder(pkgs map[string]*modPkg) ([]*modPkg, error) {
	indeg := make(map[string]int, len(pkgs))
	dependents := make(map[string][]string)
	for path, p := range pkgs { //lint:ignore determcheck graph construction; the Kahn queue below is kept sorted
		for _, dep := range p.analysisDeps {
			if _, ok := pkgs[dep]; !ok {
				return nil, fmt.Errorf("lint: %s imports %s, which has no source directory", path, dep)
			}
			indeg[path]++
			dependents[dep] = append(dependents[dep], path)
		}
		for _, dep := range append(append([]string(nil), p.testDeps...), p.extDeps...) {
			if _, ok := pkgs[dep]; !ok {
				return nil, fmt.Errorf("lint: %s test files import %s, which has no source directory", path, dep)
			}
		}
	}
	var ready []string
	for path := range pkgs { //lint:ignore determcheck iteration feeds a full sort below; the queue is re-sorted every round
		if indeg[path] == 0 {
			ready = append(ready, path)
		}
	}
	sort.Strings(ready)
	var order []*modPkg
	for len(ready) > 0 {
		path := ready[0]
		ready = ready[1:]
		p := pkgs[path]
		p.depth = 1
		p.closure = make(map[string]bool)
		for _, dep := range p.analysisDeps {
			d := pkgs[dep]
			if d.depth >= p.depth {
				p.depth = d.depth + 1
			}
			p.closure[dep] = true
			for c := range d.closure { //lint:ignore determcheck closure union; membership sets have no output order
				p.closure[c] = true
			}
		}
		order = append(order, p)
		added := false
		for _, dep := range dependents[path] {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready = append(ready, dep)
				added = true
			}
		}
		if added {
			sort.Strings(ready)
		}
	}
	if len(order) != len(pkgs) {
		var stuck []string
		for path := range pkgs { //lint:ignore determcheck iteration feeds a full sort below; the error message is sorted
			if indeg[path] > 0 {
				stuck = append(stuck, path)
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("lint: import cycle among module packages: %s", strings.Join(stuck, ", "))
	}
	return order, nil
}

// hashPackage fills in baseHash (over the analysis unit and its
// library-dependency hashes) and cacheKey (baseHash extended with the
// ext-test files and the test-only dependency hashes; test imports may
// point back into dependents of p, so they stay out of the acyclic
// baseHash recursion). Dependencies must already be hashed (topo
// order).
func hashPackage(tool string, p *modPkg, pkgs map[string]*modPkg) {
	base := make(map[string][]byte, len(p.lib)+len(p.intTest))
	for _, name := range append(append([]string(nil), p.lib...), p.intTest...) {
		base[name] = p.files[name]
	}
	deps := make(map[string]string, len(p.analysisDeps))
	for _, dep := range p.analysisDeps {
		deps[dep] = pkgs[dep].baseHash
	}
	p.baseHash = contentHash(tool, p.path, base, deps)

	ext := make(map[string][]byte, len(p.extTest))
	for _, name := range p.extTest {
		ext[name] = p.files[name]
	}
	extDeps := make(map[string]string, len(p.testDeps)+len(p.extDeps)+1)
	extDeps[p.path] = p.baseHash
	for _, dep := range p.testDeps {
		extDeps[dep] = pkgs[dep].baseHash
	}
	for _, dep := range p.extDeps {
		extDeps[dep] = pkgs[dep].baseHash
	}
	p.cacheKey = contentHash(tool, p.path+" [ext]", ext, extDeps)
}

// scheduleLevels groups the missed packages into dependency levels:
// everything in one level is mutually independent and fans out over
// par.ForEach; levels run in order, so facts of every dependency are
// in the store before a dependent's pass starts. Ext-test units ride
// with their package's level when possible, but a package whose
// ext-test files import a *deeper* package is deferred past it.
func scheduleLevels(misses []*modPkg, pkgs map[string]*modPkg) [][]*modPkg {
	levelOf := func(p *modPkg) int {
		l := p.depth
		for _, dep := range p.testDeps {
			if d := pkgs[dep].depth + 1; d > l {
				l = d
			}
		}
		for _, dep := range p.extDeps {
			if d := pkgs[dep].depth + 1; d > l {
				l = d
			}
		}
		return l
	}
	byLevel := make(map[int][]*modPkg)
	for _, p := range misses {
		l := levelOf(p)
		byLevel[l] = append(byLevel[l], p)
	}
	var levels []int
	for l := range byLevel {
		levels = append(levels, l)
	}
	sort.Ints(levels)
	out := make([][]*modPkg, 0, len(levels))
	for _, l := range levels {
		level := byLevel[l]
		sort.Slice(level, func(i, j int) bool { return level[i].path < level[j].path })
		out = append(out, level)
	}
	return out
}

// analyzePackage runs the analysis unit and, if present, the external
// test unit of one package, returning their merged diagnostics and
// ignore audit. Facts land in store under p.path.
func analyzePackage(root string, p *modPkg, pkgs map[string]*modPkg, tb *typesBuilder, store *FactStore, analyzers []*Analyzer) ([]Diagnostic, []IgnoreInfo, error) {
	var diags []Diagnostic
	var ignores []IgnoreInfo

	visible := make(map[string]bool, len(p.closure)+1)
	for c := range p.closure { //lint:ignore determcheck visibility set construction; membership only
		visible[c] = true
	}
	visible[p.path] = true

	if len(p.lib)+len(p.intTest) > 0 {
		unit, err := tb.checkUnit(p.path, p.relDir, p.files, append(append([]string(nil), p.lib...), p.intTest...), false)
		if err != nil {
			return nil, nil, err
		}
		d, ig, err := RunPass(unit, store, visible, false, analyzers...)
		if err != nil {
			return nil, nil, fmt.Errorf("lint: analyzing %s: %w", p.path, err)
		}
		diags = append(diags, d...)
		ignores = append(ignores, ig...)
	}

	if len(p.extTest) > 0 {
		for _, dep := range p.extDeps {
			visible[dep] = true
			for c := range pkgs[dep].closure { //lint:ignore determcheck visibility set construction; membership only
				visible[c] = true
			}
		}
		unit, err := tb.checkUnit(p.path+"_test", p.relDir, p.files, p.extTest, false)
		if err != nil {
			return nil, nil, err
		}
		d, ig, err := RunPass(unit, store, visible, false, analyzers...)
		if err != nil {
			return nil, nil, fmt.Errorf("lint: analyzing %s_test: %w", p.path, err)
		}
		diags = append(diags, d...)
		ignores = append(ignores, ig...)
	}

	SortDiagnostics(diags)
	return diags, ignores, nil
}

// typesBuilder lazily type-checks the import view of module packages
// (library files, function bodies ignored) with per-package
// memoization, safe for use from the parallel analysis fan-out.
// Standard-library imports fall back to the source importer behind a
// mutex — the fallback caches internally, so each stdlib package is
// checked at most once per run.
type typesBuilder struct {
	root      string
	goVersion string
	fset      *token.FileSet
	pkgs      map[string]*modPkg

	mu      sync.Mutex
	entries map[string]*typesEntry

	fallbackMu sync.Mutex
	fallback   types.Importer
}

type typesEntry struct {
	once sync.Once
	pkg  *types.Package
	err  error
}

func newTypesBuilder(root, goVersion string, pkgs map[string]*modPkg) *typesBuilder {
	fset := token.NewFileSet()
	return &typesBuilder{
		root:      root,
		goVersion: goVersion,
		fset:      fset,
		pkgs:      pkgs,
		entries:   make(map[string]*typesEntry),
		fallback:  importer.ForCompiler(fset, "source", nil),
	}
}

// Import implements types.Importer over the module graph.
func (b *typesBuilder) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := b.pkgs[path]; ok {
		return b.typesPackage(p)
	}
	b.fallbackMu.Lock()
	defer b.fallbackMu.Unlock()
	return b.fallback.Import(path)
}

// typesPackage returns the memoized import view of one module package.
func (b *typesBuilder) typesPackage(p *modPkg) (*types.Package, error) {
	b.mu.Lock()
	e := b.entries[p.path]
	if e == nil {
		e = &typesEntry{}
		b.entries[p.path] = e
	}
	b.mu.Unlock()
	e.once.Do(func() {
		unit, err := b.checkUnit(p.path, p.relDir, p.files, p.lib, true)
		if err != nil {
			e.err = err
			return
		}
		e.pkg = unit.Pkg
	})
	return e.pkg, e.err
}

// checkUnit parses and type-checks one unit of a package. File names
// in positions are root-relative, so diagnostics (and cached replays
// of them) are portable across checkouts.
func (b *typesBuilder) checkUnit(importPath, relDir string, files map[string][]byte, names []string, importViewOnly bool) (*Package, error) {
	var parsed []*ast.File
	for _, name := range names {
		mode := parser.ParseComments | parser.SkipObjectResolution
		f, err := parser.ParseFile(b.fset, filepath.Join(relDir, name), files[name], mode)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	info := NewInfo()
	conf := types.Config{
		Importer:         b,
		IgnoreFuncBodies: importViewOnly,
		GoVersion:        b.goVersion,
	}
	tpkg, err := conf.Check(importPath, b.fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	return &Package{Fset: b.fset, Files: parsed, Pkg: tpkg, TypesInfo: info}, nil
}
