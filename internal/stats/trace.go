package stats

import (
	"encoding/json"
	"fmt"
	"io"
)

// EventKind labels one structured trace event. The set covers the
// telemetry the paper's mechanisms generate: slice forking, prediction
// lifecycle in the correlator, cache fills and coverage, and pipeline
// stalls. String values are stable — they are the JSONL wire format.
type EventKind string

const (
	// Slice forking (cpu).
	EvFork        EventKind = "fork"         // helper thread spawned for a slice
	EvForkGated   EventKind = "fork-gated"   // fork suppressed by the confidence gate
	EvForkIgnored EventKind = "fork-ignored" // fork dropped (no context / duplicate)
	EvForkSquash  EventKind = "fork-squash"  // helper killed by a main-thread squash

	// Prediction lifecycle (slicehw correlator).
	EvInstance     EventKind = "instance"      // correlator began tracking a slice instance
	EvInstanceDrop EventKind = "instance-drop" // instance removed by fork squash
	EvPredAlloc    EventKind = "pred-alloc"    // prediction entry allocated (PGI fetched)
	EvPredGenerate EventKind = "pred-generate" // helper PGI filled a prediction
	EvPredBind     EventKind = "pred-bind"     // branch fetch consumed a prediction
	EvOverride     EventKind = "override"      // bound prediction overrode the base predictor
	EvPredKill     EventKind = "pred-kill"     // kill instruction retired (Level: loop|slice)
	EvKillSkip     EventKind = "kill-skip"     // kill fetched with nothing to kill
	EvUndoAlloc    EventKind = "undo-alloc"    // squash rolled back an allocation
	EvUndoBind     EventKind = "undo-bind"     // squash rolled back a binding
	EvUndoKill     EventKind = "undo-kill"     // squash rolled back a kill

	// Pipeline (cpu).
	EvEarlyResolve EventKind = "early-resolution" // late prediction redirected fetch
	EvSquash       EventKind = "squash"           // main-thread squash (N: insts discarded)
	EvRetireStall  EventKind = "retire-stall"     // retire blocked by the write buffer

	// Memory hierarchy (cache).
	EvCacheFill  EventKind = "cache-fill"  // line fill initiated (Level: l1d|l1i|l2|pvb)
	EvCacheCover EventKind = "cache-cover" // demand access served by a helper-fetched line

	// Differential oracle (oracle).
	EvOracleDiverge   EventKind = "oracle-diverge"   // retired stream diverged from the functional model (N: retired index)
	EvOracleInvariant EventKind = "oracle-invariant" // structural invariant violated (N: retired index)
)

// Event is one structured telemetry event. Zero-valued fields are
// omitted on the wire, so each kind carries only the fields it uses.
type Event struct {
	Cycle uint64    `json:"cyc"`
	Kind  EventKind `json:"ev"`
	PC    uint64    `json:"pc,omitempty"`    // instruction that caused the event
	Addr  uint64    `json:"addr,omitempty"`  // memory address / branch target
	Slice int       `json:"slice,omitempty"` // slice id (correlator events)
	Inst  int       `json:"inst,omitempty"`  // slice instance number
	Dir   string    `json:"dir,omitempty"`   // branch direction, or fill requester ("helper"|"hw")
	Level string    `json:"level,omitempty"` // cache level, cover agent, or kill scope
	N     uint64    `json:"n,omitempty"`     // event-specific count
}

// Tracer receives structured telemetry events. Implementations must be
// cheap when idle: hot paths guard Emit behind a nil check, so a nil
// Tracer is the off switch.
type Tracer interface {
	Emit(Event)
}

// FuncTracer adapts a function to the Tracer interface.
type FuncTracer func(Event)

// Emit calls the wrapped function.
func (f FuncTracer) Emit(e Event) { f(e) }

// JSONLTracer writes one JSON object per event, newline-delimited —
// greppable, streamable, and decodable back into Event (see the
// round-trip test).
type JSONLTracer struct {
	enc *json.Encoder
	err error
}

// NewJSONLTracer returns a tracer writing JSONL to w.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	return &JSONLTracer{enc: json.NewEncoder(w)}
}

// Emit encodes one event. The first encode error is retained and
// reported by Close; later events are dropped.
func (t *JSONLTracer) Emit(e Event) {
	if t.err != nil {
		return
	}
	t.err = t.enc.Encode(e)
}

// Close reports any deferred encode error.
func (t *JSONLTracer) Close() error { return t.err }

// ChromeTracer writes the Chrome trace-event format (a JSON array of
// instant events, ts = simulated cycle), loadable in chrome://tracing
// and Perfetto. Close must be called to terminate the array.
type ChromeTracer struct {
	w     io.Writer
	wrote bool
	err   error
}

// NewChromeTracer returns a tracer writing Chrome trace events to w.
func NewChromeTracer(w io.Writer) *ChromeTracer {
	t := &ChromeTracer{w: w}
	_, t.err = io.WriteString(w, "[")
	return t
}

type chromeEvent struct {
	Name EventKind `json:"name"`
	Ph   string    `json:"ph"`
	TS   uint64    `json:"ts"`
	PID  int       `json:"pid"`
	TID  int       `json:"tid"`
	Args Event     `json:"args"`
}

// Emit appends one instant event. Slice instances map to Chrome "tids"
// so per-slice activity lines up on separate tracks.
func (t *ChromeTracer) Emit(e Event) {
	if t.err != nil {
		return
	}
	b, err := json.Marshal(chromeEvent{Name: e.Kind, Ph: "i", TS: e.Cycle, TID: e.Slice, Args: e})
	if err != nil {
		t.err = err
		return
	}
	if t.wrote {
		b = append([]byte(",\n"), b...)
	} else {
		t.wrote = true
		b = append([]byte("\n"), b...)
	}
	_, t.err = t.w.Write(b)
}

// Close terminates the JSON array and reports any deferred error.
func (t *ChromeTracer) Close() error {
	if t.err != nil {
		return t.err
	}
	_, err := io.WriteString(t.w, "\n]\n")
	return err
}

// TextTracer writes one human-readable line per event, the successor of
// the old Printf trace hook.
type TextTracer struct {
	w io.Writer
}

// NewTextTracer returns a tracer writing aligned text lines to w.
func NewTextTracer(w io.Writer) *TextTracer { return &TextTracer{w: w} }

// Emit writes one line.
func (t *TextTracer) Emit(e Event) {
	fmt.Fprintf(t.w, "cyc=%-10d %-16s%s\n", e.Cycle, e.Kind, e.Detail())
}

// Detail renders the event's populated fields as " k=v" pairs (the text
// sink's payload; also handy for custom FuncTracer formatting).
func (e Event) Detail() string {
	s := ""
	if e.PC != 0 {
		s += fmt.Sprintf(" pc=%#x", e.PC)
	}
	if e.Addr != 0 {
		s += fmt.Sprintf(" addr=%#x", e.Addr)
	}
	if e.Slice != 0 || e.Inst != 0 {
		s += fmt.Sprintf(" slice=%d inst=%d", e.Slice, e.Inst)
	}
	if e.Dir != "" {
		s += " dir=" + e.Dir
	}
	if e.Level != "" {
		s += " level=" + e.Level
	}
	if e.N != 0 {
		s += fmt.Sprintf(" n=%d", e.N)
	}
	return s
}
