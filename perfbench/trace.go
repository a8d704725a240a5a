package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// layer identifies one boundary the traced run records spans at. Every
// span is recorded by the benchmark around a call it makes into a layer,
// or inside a forwarding wrapper it hands a layer (see wrap.go).
type layer int

const (
	lGenerate layer = iota
	lTranslate
	lCache
	lCtrl
	lDecodeBank
	lAdmit
	lDepart
	lResize
	lQuiesce
	lSchedRound
	lWriteGuest
	lAudit
	lServeNew
	lServeRun
	lObserve
	lBoot
	lFuzzer
	lHammer
	lFill
	lCheck
	lEndWindow
	numLayers
)

var layerNames = [numLayers]string{
	lGenerate:   "workload.generate",
	lTranslate:  "core.translate",
	lCache:      "memctrl.cache",
	lCtrl:       "memctrl.ctrl",
	lDecodeBank: "addr.decode_bank",
	lAdmit:      "fleet.admit",
	lDepart:     "fleet.depart",
	lResize:     "fleet.resize",
	lQuiesce:    "fleet.quiesce",
	lSchedRound: "fleet.sched_round",
	lWriteGuest: "core.write_guest",
	lAudit:      "fleet.audit",
	lServeNew:   "serve.new",
	lServeRun:   "serve.run",
	lObserve:    "mitigation.observe",
	lBoot:       "core.boot",
	lFuzzer:     "attack.fuzzer",
	lHammer:     "attack.hammer",
	lFill:       "attack.fill",
	lCheck:      "attack.check",
	lEndWindow:  "attack.end_window",
}

func (l layer) String() string { return layerNames[l] }

// layerStat accumulates every call at one boundary, sampled or not.
type layerStat struct {
	calls int64
	busy  time.Duration // sum of span durations
	self  time.Duration // busy minus time covered by child spans
}

// Span is one recorded call: its layer, its interval relative to the
// tracer's origin, the index of its parent span within the iteration (-1
// for a root), and the op it belongs to.
type Span struct {
	Iter   int    `json:"iter"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

type frame struct {
	l        layer
	start    time.Duration
	children time.Duration
	span     int // index into spans, -1 when the op is not sampled
}

// Tracer records spans around layer calls. It keeps counts and busy/self
// time for every call, and full spans only for ops whose id is a multiple
// of sampleEvery, so the span log stays bounded on access-granular
// workloads. Spans are kept in memory and written out by writeSpans.
//
// A Tracer is not safe for concurrent use: every traced call happens on
// the benchmark's own goroutine (fleet host workers are only waited on).
// All methods are no-ops on a nil *Tracer, which is how the untraced run
// shares the code that calls them.
type Tracer struct {
	origin      time.Time
	sampleEvery int64
	stats       [numLayers]layerStat
	stack       []frame
	spans       []Span
	op          int64
	sampled     bool
}

// NewTracer starts a tracer whose ops are span-sampled every sampleEvery.
func NewTracer(sampleEvery int64) *Tracer {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &Tracer{origin: time.Now(), sampleEvery: sampleEvery, sampled: true}
}

// Op starts op id; spans begun until the next Op share this id.
func (t *Tracer) Op(id int64) {
	if t == nil {
		return
	}
	t.op = id
	t.sampled = id%t.sampleEvery == 0
}

// Begin opens a span at layer l, nested under the innermost open span.
func (t *Tracer) Begin(l layer) {
	if t == nil {
		return
	}
	f := frame{l: l, span: -1}
	if t.sampled {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].span
		}
		f.span = len(t.spans)
		t.spans = append(t.spans, Span{Op: t.op, Name: layerNames[l], Parent: parent})
	}
	f.start = time.Since(t.origin)
	t.stack = append(t.stack, f)
}

// End closes the innermost open span.
func (t *Tracer) End() {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := now - f.start
	s := &t.stats[f.l]
	s.calls++
	s.busy += d
	s.self += d - f.children
	if n > 0 {
		t.stack[n-1].children += d
	}
	if f.span >= 0 {
		t.spans[f.span].Start = int64(f.start)
		t.spans[f.span].End = int64(now)
	}
}

// Stat returns layer l's accumulated counts and times.
func (t *Tracer) Stat(l layer) layerStat { return t.stats[l] }

// writeSpans writes the span logs of several traced iterations as JSON
// lines to path, tagging each span with its iteration index.
func writeSpans(path string, tracers []*Tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i, t := range tracers {
		if len(t.stack) != 0 {
			f.Close()
			return fmt.Errorf("trace: %d spans still open (innermost %s)", len(t.stack), t.stack[len(t.stack)-1].l)
		}
		for _, s := range t.spans {
			s.Iter = i
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
