package main

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/attack"
	"repro/internal/geometry"
	"repro/internal/mitigation"
)

// The traced run hands these forwarding wrappers to layers that take an
// interface, so calls the program makes into a nested layer get their own
// child spans without any change to program code. Each wrapper must
// expose exactly the optional interfaces of the value it wraps: the
// program feature-detects them (memctrl asserts addr.BankDecoder once per
// controller), and a wrapper that hid or invented one would send the
// traced run down another code path. wrap_test.go pins this.

// tracedMapper forwards an addr.Mapper together with its addr.BankDecoder
// fast path, which memctrl takes on every access, and records an
// addr.decode_bank span per DecodeBank call.
type tracedMapper struct {
	m  addr.Mapper
	bd addr.BankDecoder
	tr *Tracer
}

func (w *tracedMapper) Decode(pa uint64) (geometry.MediaAddr, error) { return w.m.Decode(pa) }
func (w *tracedMapper) Encode(m geometry.MediaAddr) (uint64, error)  { return w.m.Encode(m) }
func (w *tracedMapper) Geometry() geometry.Geometry                  { return w.m.Geometry() }

func (w *tracedMapper) DecodeBank(pa uint64) (bank, row, socket int, err error) {
	w.tr.Begin(lDecodeBank)
	bank, row, socket, err = w.bd.DecodeBank(pa)
	w.tr.End()
	return bank, row, socket, err
}

// wrapMapper returns m unchanged when tr is nil, else a traced forwarder.
// Every mapper the program builds implements addr.BankDecoder; one that
// does not is refused, since the wrapper would otherwise invent a fast
// path the untraced run does not take.
func wrapMapper(m addr.Mapper, tr *Tracer) (addr.Mapper, error) {
	if tr == nil {
		return m, nil
	}
	bd, ok := m.(addr.BankDecoder)
	if !ok {
		return nil, fmt.Errorf("mapper %T does not implement addr.BankDecoder", m)
	}
	return &tracedMapper{m: m, bd: bd, tr: tr}, nil
}

// tracedMitigation forwards a mitigation.Mitigation and records a
// mitigation.observe span per OnActivate.
type tracedMitigation struct {
	m  mitigation.Mitigation
	tr *Tracer
}

func (w *tracedMitigation) Name() string { return w.m.Name() }
func (w *tracedMitigation) OnActivate(ev mitigation.Activation, refresh mitigation.RefreshFn) {
	w.tr.Begin(lObserve)
	w.m.OnActivate(ev, refresh)
	w.tr.End()
}
func (w *tracedMitigation) OnWindowEnd()                  { w.m.OnWindowEnd() }
func (w *tracedMitigation) Overhead() mitigation.Overhead { return w.m.Overhead() }
func (w *tracedMitigation) Health() error                 { return w.m.Health() }

// wrapMitigation returns m unchanged when tr or m is nil.
func wrapMitigation(m mitigation.Mitigation, tr *Tracer) mitigation.Mitigation {
	if tr == nil || m == nil {
		return m
	}
	return &tracedMitigation{m: m, tr: tr}
}

// fuzzTarget forwards an attack.Target. It always marks pattern boundaries (for the per-pattern latency samples); with a
// tracer it also records attack.hammer/fill/check/end_window spans.
//
// A fuzzing pattern is HammerPattern's fill → hammer → check sequence run
// once per data polarity, so a pattern starts at every second fill phase
// that follows a check phase (or the campaign start).
type fuzzTarget struct {
	t  attack.Target
	tr *Tracer

	inFill     bool
	fillPhases int
	onPattern  func() // called at each pattern start
}

func (w *fuzzTarget) Rows() []attack.RowRef { return w.t.Rows() }

func (w *fuzzTarget) Hammer(r attack.RowRef, count int, openNs int64) error {
	w.inFill = false
	w.tr.Begin(lHammer)
	err := w.t.Hammer(r, count, openNs)
	w.tr.End()
	return err
}

func (w *fuzzTarget) FillRow(r attack.RowRef, pat byte) error {
	if !w.inFill {
		w.inFill = true
		if w.fillPhases%2 == 0 && w.onPattern != nil {
			w.onPattern()
		}
		w.fillPhases++
	}
	w.tr.Begin(lFill)
	err := w.t.FillRow(r, pat)
	w.tr.End()
	return err
}

func (w *fuzzTarget) CheckRow(r attack.RowRef, pat byte) ([]attack.Corruption, error) {
	w.inFill = false
	w.tr.Begin(lCheck)
	cs, err := w.t.CheckRow(r, pat)
	w.tr.End()
	return cs, err
}

func (w *fuzzTarget) EndWindow() {
	w.inFill = false
	w.tr.Begin(lEndWindow)
	w.t.EndWindow()
	w.tr.End()
}
