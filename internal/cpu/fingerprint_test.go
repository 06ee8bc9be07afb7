package cpu

import (
	"reflect"
	"testing"
)

func TestFingerprintStability(t *testing.T) {
	a, b := Config4Wide(), Config4Wide()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical configs fingerprint differently")
	}
	// Insertion order of the Perfect PC sets must not matter.
	a.Perfect = Perfect{BranchPCs: map[uint64]bool{}, LoadPCs: map[uint64]bool{}}
	b.Perfect = Perfect{BranchPCs: map[uint64]bool{}, LoadPCs: map[uint64]bool{}}
	pcs := []uint64{0x1000, 0x2040, 0x10, 0x99f8, 0x4}
	for _, pc := range pcs {
		a.Perfect.BranchPCs[pc] = true
		a.Perfect.LoadPCs[pc+8] = true
	}
	for i := len(pcs) - 1; i >= 0; i-- {
		b.Perfect.BranchPCs[pcs[i]] = true
		b.Perfect.LoadPCs[pcs[i]+8] = true
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("perfect-set insertion order leaked into the fingerprint")
	}
}

// TestFingerprintDistinguishes mutates every leaf field of Config, found
// by reflection (Mem's and Perfect's fields included), so a field added
// to Config but left out of the hand-written Fingerprint fails here
// instead of silently aliasing memo entries and warm checkpoints.
func TestFingerprintDistinguishes(t *testing.T) {
	base := Config4Wide().Fingerprint()
	var walk func(prefix string, index []int, typ reflect.Type)
	walk = func(prefix string, index []int, typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			idx := append(index[:len(index):len(index)], i)
			if f.Type.Kind() == reflect.Struct {
				walk(prefix+f.Name+".", idx, f.Type)
				continue
			}
			c := Config4Wide()
			mutateLeaf(t, prefix+f.Name, reflect.ValueOf(&c).Elem().FieldByIndex(idx))
			if c.Fingerprint() == base {
				t.Errorf("%s%s: mutation not reflected in fingerprint", prefix, f.Name)
			}
		}
	}
	walk("", nil, reflect.TypeOf(Config{}))

	// Two spellings of one predictor kind at different geometries are
	// different machines.
	for _, mutate := range []func(*Config){
		func(c *Config) { c.BPred = "yags:4096,1024,6,12" },
		func(c *Config) { c.IndirectPred = "cascaded:128,256,8,10" },
	} {
		c := Config4Wide()
		mutate(&c)
		if c.Fingerprint() == base {
			t.Errorf("predictor params %q/%q not reflected in fingerprint", c.BPred, c.IndirectPred)
		}
	}
	if Config4Wide().Fingerprint() == Config8Wide().Fingerprint() {
		t.Error("4-wide and 8-wide fingerprint identically")
	}
}

// mutateLeaf changes one scalar, string or PC-set field of a Config to a
// different value.
func mutateLeaf(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		key := reflect.New(v.Type().Key()).Elem()
		key.SetUint(0x1234)
		m.SetMapIndex(key, reflect.ValueOf(true))
		v.Set(m)
	default:
		t.Fatalf("%s: no mutation for a %s field; extend mutateLeaf", name, v.Kind())
	}
}

// TestFingerprintPredictorNormalization: leaving the predictor spec empty
// and spelling out the default name are the same configuration and must
// share memo entries and warm checkpoints.
func TestFingerprintPredictorNormalization(t *testing.T) {
	a, b := Config4Wide(), Config4Wide()
	b.BPred, b.IndirectPred = "yags", "cascaded"
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("empty predictor spec fingerprints differently than the default name")
	}
	if a.WarmFingerprint() != b.WarmFingerprint() {
		t.Error("empty predictor spec warm-fingerprints differently than the default name")
	}
	// The predictor choice is warm-relevant: different predictors must
	// never share a warm checkpoint.
	c := Config4Wide()
	c.BPred = "value"
	if c.WarmFingerprint() == a.WarmFingerprint() {
		t.Error("predictor choice missing from the warm fingerprint")
	}
}
