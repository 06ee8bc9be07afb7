package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its calls into the simulator. Spans form a tree through
// Parent: pass → driver (tables only) → sim → warm/disk_load/restore/run.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a root span
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the recorder started
	End    float64 `json:"end_s"`
}

// spanNames is every span name the benchmark records, in report order.
var spanNames = []string{"pass", "driver", "sim", "warm", "disk_load", "restore", "run", "run_mp"}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced passes pay only a nil check.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.epoch).Seconds(), End: end.Sub(r.epoch).Seconds(),
	})
	return id
}

// open records a span whose end is not known yet; close fills it in.
func (r *recorder) open(name string, parent int) int {
	now := time.Now()
	return r.add(name, parent, now, now)
}

func (r *recorder) close(id int) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = time.Since(r.epoch).Seconds()
	r.mu.Unlock()
}

// selfSeconds sums, per span name, each span's duration minus the part of
// its interval that its children cover. Children may overlap (the engine
// runs simulations in parallel), so their intervals are merged first.
func (r *recorder) selfSeconds() map[string]float64 {
	kids := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range r.spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, curS, curE := 0.0, 0.0, -1.0
		for _, c := range cs {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = lo, hi
			} else if hi > curE {
				curE = hi
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}

// write stores the spans as one JSON document.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
