package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"reflect"
	"sort"
)

// FactRecord is one exported fact, resolved for reporting and
// analysistest assertions.
type FactRecord struct {
	Analyzer string
	Package  string
	// Object is the stable key of the annotated object — the function's
	// FullName ("(*pkg/path.T).M", "pkg/path.F") or "pkgpath.Name" for
	// other objects.
	Object string
	// Name is the object's unqualified name, used when rendering
	// assertions.
	Name string
	Pos  token.Position
	Fact Fact
}

// String renders the record the way analysistest fact assertions match
// it: "name: factString".
func (r FactRecord) String() string {
	return fmt.Sprintf("%s: %v", r.Name, r.Fact)
}

// objectKey returns the stable, instance-independent key for obj. The
// same source package can be type-checked twice (with and without test
// files), so facts are keyed by name, not object identity.
func objectKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return fn.FullName()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// factKey identifies one fact slot.
type factKey struct {
	analyzer string
	pkg      string
	object   string
}

// factAccess mediates a pass's fact reads and writes. Reads hit the
// local map (facts exported earlier while analyzing this package) and
// then the global store (facts of already-analyzed packages, which only
// completed import-order waves write — no locking needed). Writes go to
// the local map; the driver merges it into the global store between
// waves.
type factAccess struct {
	global map[factKey]*FactRecord
	local  map[factKey]*FactRecord
}

func (fa *factAccess) lookup(k factKey) *FactRecord {
	if r, ok := fa.local[k]; ok {
		return r
	}
	return fa.global[k]
}

// copyFact copies the stored fact's value into dst if their dynamic
// types match. Both are pointers to structs.
func copyFact(dst Fact, src Fact) bool {
	dv, sv := reflect.ValueOf(dst), reflect.ValueOf(src)
	if dv.Kind() != reflect.Ptr || sv.Kind() != reflect.Ptr || dv.Type() != sv.Type() {
		return false
	}
	dv.Elem().Set(sv.Elem())
	return true
}

func (fa *factAccess) export(p *Pass, obj types.Object, fact Fact) {
	pos := p.Fset.Position(obj.Pos())
	fa.local[factKey{p.Analyzer.Name, p.Path, objectKey(obj)}] = &FactRecord{
		Analyzer: p.Analyzer.Name,
		Package:  p.Path,
		Object:   objectKey(obj),
		Name:     obj.Name(),
		Pos:      pos,
		Fact:     fact,
	}
}

func (fa *factAccess) importObject(analyzer string, obj types.Object, fact Fact) bool {
	r := fa.lookup(factKey{analyzer, obj.Pkg().Path(), objectKey(obj)})
	if r == nil {
		return false
	}
	return copyFact(fact, r.Fact)
}

// sortedRecords returns m's records in deterministic order.
func sortedRecords(m map[factKey]*FactRecord) []*FactRecord {
	keys := make([]factKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.analyzer != b.analyzer {
			return a.analyzer < b.analyzer
		}
		if a.pkg != b.pkg {
			return a.pkg < b.pkg
		}
		return a.object < b.object
	})
	out := make([]*FactRecord, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}
