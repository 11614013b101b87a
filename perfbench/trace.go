package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Spans of one operation share Op; Parent indexes the enclosing
// span (-1 for the operation's root span).
//
// A replay span times a public call the benchmark makes on its own,
// just before the parent, to split a call whose stages the program does
// not expose (core.Optimizer.Step, ilt.Run). It counts as a child of
// Parent, Weight times, in the ledger, and its own wall time is left out
// of the operation's time.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	Replay bool    `json:"replay,omitempty"`
	Weight int     `json:"weight"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per wrapped call.
type tracer struct {
	t0    time.Time
	spans []span
	// replayFFT counts the FFTs replays ran, taken out of the
	// per-operation FFT counts.
	replayFFT fftTally
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return ms(time.Since(t.t0).Seconds()) }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

// beginReplay opens a replay span under parent that stands for weight
// calls the parent makes internally.
func (t *tracer) beginReplay(name string, op, parent, weight int) int {
	id := t.begin(name, op, parent)
	if id >= 0 {
		t.spans[id].Replay, t.spans[id].Weight = true, weight
	}
	return id
}

// restart moves a span's start to now: the parent of a replay is opened
// before its replays and restarted just before the real call.
func (t *tracer) restart(id int) {
	if t != nil && id >= 0 {
		t.spans[id].Start = t.now()
	}
}

func (t *tracer) end(id int) {
	if t != nil && id >= 0 {
		t.spans[id].End = t.now()
	}
}

// warmup reports a replay that stands for no call.
func (s span) warmup() bool { return s.Replay && s.Weight == 0 }

// durations returns the per-call wall times (ms) of the spans named
// name, warm-ups left out.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && !s.warmup() {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns the per-call self times (ms) of the spans named
// name: each span's duration minus its children's, replays counted
// Weight times.
func (t *tracer) selfTimes(name string) []float64 {
	child := childTime(t.spans)
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur()-child[i])
		}
	}
	return out
}

// childTime sums, per span, the ledger time of its children.
func childTime(spans []span) []float64 {
	child := make([]float64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += ledgerTime(s)
		}
	}
	return child
}

// ledgerTime is the time a span stands for in its parent: a replay
// stands for Weight calls (0 for a warm-up that stands for none).
func ledgerTime(s span) float64 {
	if s.Replay {
		return s.dur() * float64(s.Weight)
	}
	return s.dur()
}

// opLedger splits one operation's wall time into per-layer self times.
// Self times plus Unattributed sum to Wall exactly: Wall is the root
// span minus the replays it contained, and Unattributed is the part of
// Wall no layer span covers (benchmark bookkeeping between calls).
type opLedger struct {
	Op             int                `json:"op"`
	Wall           float64            `json:"wall_ms"`
	Self           map[string]float64 `json:"self_ms"`
	Unattributed   float64            `json:"unattributed_ms"`
	ReplayExcluded float64            `json:"replay_excluded_ms"`
}

// ledgers builds one ledger per operation root span.
func ledgers(spans []span) []opLedger {
	child := childTime(spans)
	byOp := map[int]*opLedger{}
	var order []int
	for i, s := range spans {
		if s.Parent < 0 {
			byOp[s.Op] = &opLedger{Op: s.Op, Wall: s.dur(), Unattributed: s.dur() - child[i], Self: map[string]float64{}}
			order = append(order, s.Op)
		}
	}
	for i, s := range spans {
		l := byOp[s.Op]
		if s.Parent < 0 || l == nil {
			continue
		}
		l.Self[s.Name] += ledgerTime(s) - child[i]
		if s.Replay {
			// A replay ran inside the root's interval but is not part
			// of the operation: take its wall time out of the op.
			l.ReplayExcluded += s.dur()
			l.Wall -= s.dur()
			l.Unattributed -= s.dur()
		}
	}
	sort.Ints(order)
	out := make([]opLedger, 0, len(order))
	for _, op := range order {
		out = append(out, *byOp[op])
	}
	return out
}

// writeSpans stores the span log and the per-operation ledgers as JSON.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	data, err := json.MarshalIndent(struct {
		Spans   []span     `json:"spans"`
		Ledgers []opLedger `json:"ledgers"`
	}{spans, ledgers(spans)}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
