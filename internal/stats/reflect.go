package stats

import (
	"fmt"
	"reflect"
)

// This file implements the uniform counter semantics every telemetry
// struct shares: Zero and Add walk a counter struct by reflection, so a
// counter field added anywhere — including inside a nested struct or a
// per-PC map — is automatically reset and merged without touching any
// hand-maintained list. Identity fields — bools, strings, and numeric
// fields tagged `stats:"id"` (e.g. Static.PC) — are never summed: merges
// keep the destination's value (adopting the source's when unset) and
// resets leave them intact.

// Zero resets every numeric counter reachable from ptr (a pointer to a
// counter struct) in place. Maps are replaced with fresh empty maps.
func Zero(ptr any) {
	v := mustPtrToStruct("stats.Zero", ptr)
	zeroValue(v)
}

func zeroValue(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanSet() || isIdentity(v.Type().Field(i)) {
				continue
			}
			zeroValue(f)
		}
	case reflect.Map:
		if !v.IsNil() {
			v.Set(reflect.MakeMap(v.Type()))
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			zeroValue(v.Index(i))
		}
	case reflect.Pointer:
		if !v.IsNil() {
			zeroValue(v.Elem())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Float32, reflect.Float64:
		v.Set(reflect.Zero(v.Type()))
	}
}

// Add accumulates src into dst field-wise (dst += src). Both must be
// pointers to the same counter-struct type. Map entries and slice
// elements missing from dst are built by adding src's into a fresh zero
// value, so dst never shares a pointer with src; identity fields take
// src's value only when dst's is the zero value (merging two halves of
// one run must not blank a PC).
func Add(dst, src any) { addValue(elemOf("stats.Add", dst, src)) }

func elemOf(op string, dst, src any) (reflect.Value, reflect.Value) {
	d := mustPtrToStruct(op, dst)
	s := mustPtrToStruct(op, src)
	if d.Type() != s.Type() {
		panic(fmt.Sprintf("%s: mismatched types %s and %s", op, d.Type(), s.Type()))
	}
	return d, s
}

func mustPtrToStruct(op string, p any) reflect.Value {
	v := reflect.ValueOf(p)
	if v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
		panic(fmt.Sprintf("%s: want non-nil pointer to struct, got %T", op, p))
	}
	return v.Elem()
}

func addValue(d, s reflect.Value) {
	switch d.Kind() {
	case reflect.Struct:
		for i := 0; i < d.NumField(); i++ {
			f := d.Field(i)
			if !f.CanSet() {
				continue
			}
			if isIdentity(d.Type().Field(i)) {
				if f.IsZero() {
					addValue(f, s.Field(i))
				}
				continue
			}
			addValue(f, s.Field(i))
		}
	case reflect.Map:
		if s.IsNil() {
			return
		}
		if d.IsNil() {
			d.Set(reflect.MakeMap(d.Type()))
		}
		// Map values are pointers to structs (e.g. *Static) or plain
		// values: pointer targets accumulate in place, values re-store, and
		// a missing entry is built by adding into a fresh zero value.
		it := s.MapRange()
		for it.Next() {
			tmp := reflect.New(d.Type().Elem()).Elem()
			if dv := d.MapIndex(it.Key()); dv.IsValid() {
				tmp.Set(dv)
			}
			addValue(tmp, it.Value())
			d.SetMapIndex(it.Key(), tmp)
		}
	case reflect.Slice:
		// Slices are positional (e.g. Snapshot.Progs is slot-aligned):
		// overlapping indices accumulate element-wise, and src's extra
		// elements are added into fresh zero elements on the end.
		for i := 0; i < s.Len(); i++ {
			if i == d.Len() {
				d.Set(reflect.Append(d, reflect.Zero(d.Type().Elem())))
			}
			addValue(d.Index(i), s.Index(i))
		}
	case reflect.Pointer:
		if s.IsNil() {
			return
		}
		if d.IsNil() {
			d.Set(reflect.New(d.Type().Elem()))
		}
		addValue(d.Elem(), s.Elem())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		d.SetUint(d.Uint() + s.Uint())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		d.SetInt(d.Int() + s.Int())
	case reflect.Float32, reflect.Float64:
		d.SetFloat(d.Float() + s.Float())
	case reflect.Bool, reflect.String:
		// Identity fields: adopt src's value when dst has none.
		if d.IsZero() {
			d.Set(s)
		}
	}
}

// isIdentity reports whether a struct field carries identity, not a
// count: it is tagged `stats:"id"` (Static.PC is the canonical example).
// Bools and strings are identity by kind and handled in the leaf cases.
func isIdentity(f reflect.StructField) bool {
	return f.Tag.Get("stats") == "id"
}

// ForEachCounter visits every settable numeric counter field reachable
// from ptr, calling fn with a dotted path (for diagnostics) and the
// addressable field value. Map contents are not visited — maps are
// cleared wholesale on reset. Tests use this walk to assert reset
// completeness: a counter that exists must be zeroed by Reset.
func ForEachCounter(ptr any, fn func(path string, v reflect.Value)) {
	v := mustPtrToStruct("stats.ForEachCounter", ptr)
	walkCounters(v.Type().Name(), v, fn)
}

func walkCounters(path string, v reflect.Value, fn func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			if !f.CanSet() || isIdentity(v.Type().Field(i)) {
				continue
			}
			walkCounters(path+"."+v.Type().Field(i).Name, f, fn)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			walkCounters(path, v.Elem(), fn)
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Float32, reflect.Float64:
		fn(path, v)
	}
}
