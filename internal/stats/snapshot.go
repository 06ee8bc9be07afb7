package stats

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// Snapshot aggregates every counter the simulated machine exposes — the
// whole-run Sim counters, the memory hierarchy, each cache, the prefetch
// buffer, the baseline predictors, and the slice correlator — into one
// value with uniform Reset/Add semantics. It is the unit of
// machine-readable export: cmd/slicesim -json encodes one Snapshot, and
// harness rows derive from it rather than poking component structs.
type Snapshot struct {
	Sim   Sim
	Hier  HierStats
	L1D   CacheStats
	L1I   CacheStats
	L2    CacheStats
	PVB   CacheStats
	Bpred BpredStats
	Corr  CorrStats
	// Progs holds per-program whole-run counters for multi-programmed
	// cores, slot-aligned with the program specs. Nil on single-program
	// cores, so their serialized form is unchanged. Sim is always program
	// 0's view (c.S aliases progs[0].S); consumers wanting cross-program
	// aggregates sum over Progs themselves.
	Progs []Sim `json:",omitempty"`
}

// Reset zeroes every counter in the snapshot.
func (s *Snapshot) Reset() { Zero(s) }

// Clone returns an independent deep copy (the Sim.Static map is not
// shared).
func (s *Snapshot) Clone() Snapshot {
	return deepCopyValue(reflect.ValueOf(*s)).Interface().(Snapshot)
}

// Clone returns an independent deep copy of the whole-run counters.
func (s *Sim) Clone() *Sim {
	cp := deepCopyValue(reflect.ValueOf(*s)).Interface().(Sim)
	if cp.Static == nil {
		cp.Static = make(map[uint64]*Static)
	}
	return &cp
}

// Component is one live counter struct registered with a Registry: Ptr
// points into the owning hardware model, and Field names the Snapshot
// field (dotted for nesting, e.g. "Bpred.YAGS") it exports to.
type Component struct {
	Field string
	Ptr   any
}

// Registry maps the live counter structs of one simulated core onto
// Snapshot fields. Registering a component once gives it Reset and export
// for free: Registry.Reset zeroes the component in place, and
// Registry.Snapshot deep-copies it into the Snapshot field it names.
// Any counter field later added to a registered struct is picked up
// automatically — there is no hand-maintained reset list to forget.
type Registry struct {
	components []Component
}

// Register adds a live counter struct under the named Snapshot field.
// It panics unless field resolves to a Snapshot field whose type matches
// *ptr — catching typos and type drift at construction, not export, time.
func (r *Registry) Register(field string, ptr any) {
	v := reflect.ValueOf(ptr)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		panic(fmt.Sprintf("stats.Registry: component %q must be a non-nil pointer, got %T", field, ptr))
	}
	fv, err := snapshotField(reflect.ValueOf(&Snapshot{}).Elem(), field)
	if err != nil {
		panic(fmt.Sprintf("stats.Registry: %v", err))
	}
	if fv.Type() != v.Elem().Type() {
		panic(fmt.Sprintf("stats.Registry: component %q is %s, Snapshot field wants %s",
			field, v.Elem().Type(), fv.Type()))
	}
	for _, c := range r.components {
		if c.Field == field {
			panic(fmt.Sprintf("stats.Registry: field %q registered twice", field))
		}
	}
	r.components = append(r.components, Component{Field: field, Ptr: ptr})
}

// Components returns the registered components sorted by field name.
func (r *Registry) Components() []Component {
	out := append([]Component(nil), r.components...)
	sort.Slice(out, func(i, j int) bool { return out[i].Field < out[j].Field })
	return out
}

// Reset zeroes every registered component in place.
func (r *Registry) Reset() {
	for _, c := range r.components {
		Zero(c.Ptr)
	}
}

// Snapshot deep-copies every registered component into the Snapshot
// field it was registered under and returns the result. Unregistered
// fields stay zero.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	sv := reflect.ValueOf(&snap).Elem()
	for _, c := range r.components {
		fv, err := snapshotField(sv, c.Field)
		if err != nil {
			panic(fmt.Sprintf("stats.Registry: %v", err)) // unreachable: Register validated
		}
		fv.Set(deepCopyValue(reflect.ValueOf(c.Ptr).Elem()))
	}
	return snap
}

func snapshotField(sv reflect.Value, field string) (reflect.Value, error) {
	v := sv
	for _, name := range strings.Split(field, ".") {
		if v.Kind() != reflect.Struct {
			return reflect.Value{}, fmt.Errorf("field path %q descends into non-struct %s", field, v.Type())
		}
		f := v.FieldByName(name)
		if !f.IsValid() {
			return reflect.Value{}, fmt.Errorf("Snapshot has no field %q (path %q)", name, field)
		}
		v = f
	}
	return v, nil
}
