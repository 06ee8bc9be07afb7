package bpred

// The predictor registry maps direction-predictor spec strings — "name"
// or "name:params" — to factories. Everything above this package
// (cpu.Config, the harness, the cmd flags) selects a direction predictor
// by spec string only, so shipping a new one means writing it and adding
// its factory to the table below; no core, checkpoint, or harness
// changes. The indirect predictor has one implementation, Table 1's
// cascaded predictor, which the core builds directly.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// DefaultDirSpec is the direction predictor of a config that leaves the
// choice empty.
const DefaultDirSpec = "yags"

// DirFactory builds a direction predictor from the params part of a spec
// ("" means the predictor's defaults).
type DirFactory func(params string) (DirPredictor, error)

// DirNames returns the registered direction predictor names, sorted.
func DirNames() []string {
	names := make([]string, 0, len(dirFactories))
	for n := range dirFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SplitSpec separates a predictor spec into name and params. The empty
// spec resolves to def.
func SplitSpec(spec, def string) (name, params string) {
	if spec == "" {
		spec = def
	}
	name, params, _ = strings.Cut(spec, ":")
	return name, params
}

// NewDir resolves a direction predictor spec ("" = DefaultDirSpec).
func NewDir(spec string) (DirPredictor, error) {
	name, params := SplitSpec(spec, DefaultDirSpec)
	f, ok := dirFactories[name]
	if !ok {
		return nil, fmt.Errorf("bpred: unknown direction predictor %q (registered: %s)",
			name, strings.Join(DirNames(), ", "))
	}
	p, err := f(params)
	if err != nil {
		return nil, fmt.Errorf("bpred: %s: %w", name, err)
	}
	return p, nil
}

// intParams parses an optional comma-separated integer parameter list,
// filling missing positions from defaults. Table geometries must be
// powers of two (the predictors index with masks).
func intParams(params string, defaults []int) ([]int, error) {
	out := append([]int(nil), defaults...)
	if params == "" {
		return out, nil
	}
	parts := strings.Split(params, ",")
	if len(parts) > len(defaults) {
		return nil, fmt.Errorf("got %d params, want at most %d", len(parts), len(defaults))
	}
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad param %q: %v", p, err)
		}
		out[i] = v
	}
	return out, nil
}

func pow2(name string, v int) error {
	if v <= 0 || v&(v-1) != 0 {
		return fmt.Errorf("%s must be a power of two, got %d", name, v)
	}
	return nil
}

// yagsGeometry is Table 1's 64 Kb YAGS: choice entries, cache entries,
// tag bits, history bits.
var yagsGeometry = []int{8192, 2048, 6, 12}

// dirFactories holds every direction predictor, keyed by spec name. Each
// factory declares its default geometry, so a geometry is stated once,
// and a duplicate name does not compile.
var dirFactories = map[string]DirFactory{
	"yags": func(params string) (DirPredictor, error) {
		p, err := intParams(params, yagsGeometry)
		if err != nil {
			return nil, err
		}
		if err := pow2("choice entries", p[0]); err != nil {
			return nil, err
		}
		if err := pow2("cache entries", p[1]); err != nil {
			return nil, err
		}
		return NewYAGS(p[0], p[1], uint(p[2]), uint(p[3])), nil
	},
	"bimodal": func(params string) (DirPredictor, error) {
		p, err := intParams(params, []int{8192})
		if err != nil {
			return nil, err
		}
		if err := pow2("entries", p[0]); err != nil {
			return nil, err
		}
		return NewBimodal(p[0]), nil
	},
	"gshare": func(params string) (DirPredictor, error) {
		p, err := intParams(params, []int{8192, 12})
		if err != nil {
			return nil, err
		}
		if err := pow2("entries", p[0]); err != nil {
			return nil, err
		}
		return NewGShare(p[0], uint(p[1])), nil
	},
	// value matches the YAGS-class budget: 1K tracked branches.
	"value": func(params string) (DirPredictor, error) {
		p, err := intParams(params, []int{1024, 4096, 8192})
		if err != nil {
			return nil, err
		}
		for _, g := range []struct {
			name string
			v    int
		}{{"entries", p[0]}, {"context entries", p[1]}, {"fallback entries", p[2]}} {
			if err := pow2(g.name, g.v); err != nil {
				return nil, err
			}
		}
		return NewValuePred(p[0], p[1], p[2]), nil
	},
	// corrmine tracks 1K branches over 16 history positions.
	"corrmine": func(params string) (DirPredictor, error) {
		p, err := intParams(params, []int{1024, 16, 48})
		if err != nil {
			return nil, err
		}
		if err := pow2("entries", p[0]); err != nil {
			return nil, err
		}
		if p[1] <= 0 || p[1] > 256 {
			return nil, fmt.Errorf("positions must be in 1..256, got %d", p[1])
		}
		if p[2] < 1 || p[2] > 127 {
			return nil, fmt.Errorf("threshold must be in 1..127, got %d", p[2])
		}
		return NewCorrMine(p[0], p[1], uint8(p[2])), nil
	},
	// perfect takes a comma-separated PC list; none means every branch.
	"perfect": func(params string) (DirPredictor, error) {
		pcs := map[uint64]bool{}
		if params != "" {
			for _, part := range strings.Split(params, ",") {
				pc, err := strconv.ParseUint(strings.TrimSpace(part), 0, 64)
				if err != nil {
					return nil, fmt.Errorf("bad PC %q: %v", part, err)
				}
				pcs[pc] = true
			}
		}
		return NewPerfectDir(pcs), nil
	},
}
