package lint

import (
	"encoding/json"
	"fmt"
	"go/types"
	"reflect"
	"sort"
	"sync"
)

// A Fact is a typed, JSON-serializable datum an analyzer attaches to a
// package-level object (a function, method, type or variable) during its
// pass over the defining package, and that analyzers of dependent
// packages import during theirs. Facts are the modular-analysis currency
// of the go/analysis design: each package is analyzed once, against the
// facts of its dependencies, so interprocedural properties (an arena
// parameter that escapes, a context that detaches, a lock acquired under
// another) cross package boundaries without whole-program analysis.
//
// A fact type must be a pointer to a JSON-marshalable struct and must be
// declared in the exporting analyzer's FactTypes. The dynamic type name
// is part of the wire key, so renaming a fact type invalidates cached
// facts — which is correct, since the consumer decodes by shape.
type Fact interface {
	// AFact is a marker method: it guards against accidentally passing
	// arbitrary values where a registered fact type is expected.
	AFact()
}

// An ObjectFact pairs a decoded fact with the object it is attached to,
// identified portably as (package path, object path).
type ObjectFact struct {
	Pkg  string // import path of the defining package
	Obj  string // object path within the package (see objPath)
	Fact Fact
}

// wireFact is the serialized form of one exported fact — the element
// type of the on-disk fact cache and of the golden fact files.
type wireFact struct {
	Pkg      string          `json:"pkg"`
	Obj      string          `json:"obj"`
	Analyzer string          `json:"analyzer"`
	Type     string          `json:"type"`
	Data     json.RawMessage `json:"data"`
}

// factKey identifies one fact slot in a store.
type factKey struct {
	pkg, obj, analyzer, typ string
}

// A FactStore holds the facts visible to a run: those imported from
// dependency packages plus those exported by the packages analyzed so
// far. It is safe for concurrent use — the module runner analyzes
// independent packages of one dependency level in parallel.
type FactStore struct {
	mu sync.RWMutex
	m  map[factKey]json.RawMessage
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey]json.RawMessage)}
}

// factTypeName names a fact's dynamic type for the wire key.
func factTypeName(f Fact) string {
	t := reflect.TypeOf(f)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

// objPath returns a portable path for a package-level object: the bare
// name for functions, types and variables, and "Recv.Name" for methods
// (pointer receivers are stripped). The empty string marks an object
// facts cannot attach to (locals, fields, universe objects).
func objPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			return named.Obj().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "" // not package-level
	}
	return obj.Name()
}

// add records one fact, overwriting any previous value in the slot.
func (s *FactStore) add(key factKey, data json.RawMessage) {
	s.mu.Lock()
	s.m[key] = data
	s.mu.Unlock()
}

// get returns the raw fact in the slot, if any.
func (s *FactStore) get(key factKey) (json.RawMessage, bool) {
	s.mu.RLock()
	data, ok := s.m[key]
	s.mu.RUnlock()
	return data, ok
}

// addWire loads serialized facts (a cache entry) into the store.
func (s *FactStore) addWire(facts []wireFact) {
	for _, f := range facts {
		s.add(factKey{f.Pkg, f.Obj, f.Analyzer, f.Type}, f.Data)
	}
}

// wire returns the facts of one package in a deterministic order, for
// serialization into a cache entry or a golden file.
func (s *FactStore) wire(pkgPath string) []wireFact {
	s.mu.RLock()
	var facts []wireFact
	for key, data := range s.m { //lint:ignore determcheck iteration feeds a full sort below; the returned order is independent of it
		if key.pkg == pkgPath {
			facts = append(facts, wireFact{key.pkg, key.obj, key.analyzer, key.typ, data})
		}
	}
	s.mu.RUnlock()
	sortWire(facts)
	return facts
}

func sortWire(facts []wireFact) {
	sort.Slice(facts, func(i, j int) bool {
		a, b := facts[i], facts[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Obj != b.Obj {
			return a.Obj < b.Obj
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Type < b.Type
	})
}

// FactsJSON returns the indented wire encoding of one package's facts —
// the golden-file form the analyzer test suites pin.
func FactsJSON(s *FactStore, pkgPath string) []byte {
	facts := s.wire(pkgPath)
	if len(facts) == 0 {
		return []byte("[]\n")
	}
	data, err := json.MarshalIndent(facts, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("lint: encoding facts: %v", err))
	}
	return append(data, '\n')
}

// ExportObjectFact attaches fact to obj, a package-level object of the
// package under analysis (or of a dependency: re-exporting an imported
// fact is a no-op overwrite with identical data). The analyzer must have
// declared the fact's type in FactTypes.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.store == nil {
		return
	}
	if !p.declaresFactType(fact) {
		panic(fmt.Sprintf("lint: analyzer %s exports undeclared fact type %T", p.Analyzer.Name, fact))
	}
	path := objPath(obj)
	if path == "" {
		panic(fmt.Sprintf("lint: analyzer %s exports a fact on a non-package-level object %v", p.Analyzer.Name, obj))
	}
	data, err := json.Marshal(fact)
	if err != nil {
		panic(fmt.Sprintf("lint: analyzer %s: marshaling %T: %v", p.Analyzer.Name, fact, err))
	}
	key := factKey{obj.Pkg().Path(), path, p.Analyzer.Name, factTypeName(fact)}
	p.store.add(key, data)
}

// ImportObjectFact decodes into fact the fact of fact's type previously
// exported for obj by this same analyzer (in this package or any
// visible dependency), reporting whether one exists.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.store == nil || obj == nil || obj.Pkg() == nil {
		return false
	}
	path := objPath(obj)
	if path == "" {
		return false
	}
	pkg := obj.Pkg().Path()
	if !p.visible(pkg) {
		return false
	}
	data, ok := p.store.get(factKey{pkg, path, p.Analyzer.Name, factTypeName(fact)})
	if !ok {
		return false
	}
	if err := json.Unmarshal(data, fact); err != nil {
		panic(fmt.Sprintf("lint: analyzer %s: unmarshaling %T: %v", p.Analyzer.Name, fact, err))
	}
	return true
}

// AllObjectFacts returns every visible fact of template's type exported
// by this analyzer, across the package under analysis and its dependency
// closure, in deterministic (package, object) order. template is only a
// type witness; each returned ObjectFact carries a freshly decoded
// value.
func (p *Pass) AllObjectFacts(template Fact) []ObjectFact {
	if p.store == nil {
		return nil
	}
	typ := factTypeName(template)
	rt := reflect.TypeOf(template)
	if rt.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("lint: fact template %T is not a pointer", template))
	}
	p.store.mu.RLock()
	var keys []factKey
	for key := range p.store.m { //lint:ignore determcheck iteration feeds a full sort below; the returned order is independent of it
		if key.analyzer == p.Analyzer.Name && key.typ == typ && p.visible(key.pkg) {
			keys = append(keys, key)
		}
	}
	p.store.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pkg != keys[j].pkg {
			return keys[i].pkg < keys[j].pkg
		}
		return keys[i].obj < keys[j].obj
	})
	out := make([]ObjectFact, 0, len(keys))
	for _, key := range keys {
		data, _ := p.store.get(key)
		fact := reflect.New(rt.Elem()).Interface().(Fact)
		if err := json.Unmarshal(data, fact); err != nil {
			panic(fmt.Sprintf("lint: analyzer %s: unmarshaling %T: %v", p.Analyzer.Name, fact, err))
		}
		out = append(out, ObjectFact{Pkg: key.pkg, Obj: key.obj, Fact: fact})
	}
	return out
}

// visible reports whether facts of pkg may be consulted by this pass.
// A nil visibility set means everything in the store is in the
// dependency closure (the testdata loader's case, whose store holds
// exactly the target's dependencies).
func (p *Pass) visible(pkg string) bool {
	return p.visiblePkgs == nil || p.visiblePkgs[pkg] || pkg == p.Pkg.Path()
}

// declaresFactType reports whether the running analyzer declared fact's
// type in FactTypes.
func (p *Pass) declaresFactType(fact Fact) bool {
	name := factTypeName(fact)
	for _, t := range p.Analyzer.FactTypes {
		if factTypeName(t) == name {
			return true
		}
	}
	return false
}
