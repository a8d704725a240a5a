package main

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/addr"
	"repro/internal/attack"
	"repro/internal/geometry"
	"repro/internal/mitigation"
)

// optionalInterfaces lists, per wrapped interface, the capabilities the
// program feature-detects on values of that interface with a type
// assertion. A wrapper must expose one exactly when the wrapped value
// does, or the traced run would take another code path.
var optionalInterfaces = map[reflect.Type][]reflect.Type{
	reflect.TypeOf((*addr.Mapper)(nil)).Elem():           {reflect.TypeOf((*addr.BankDecoder)(nil)).Elem()},
	reflect.TypeOf((*mitigation.Mitigation)(nil)).Elem(): nil,
	reflect.TypeOf((*attack.Target)(nil)).Elem():         nil,
}

// methodNames is the sorted exported method set of t.
func methodNames(t reflect.Type) []string {
	var out []string
	for i := 0; i < t.NumMethod(); i++ {
		out = append(out, t.Method(i).Name)
	}
	sort.Strings(out)
	return out
}

// checkForwarding asserts that wrapper has exactly the methods of iface
// plus those optional interfaces of iface that inner implements.
func checkForwarding(t *testing.T, iface reflect.Type, inner, wrapper any) {
	t.Helper()
	want := map[string]bool{}
	for _, m := range methodNames(iface) {
		want[m] = true
	}
	it, wt := reflect.TypeOf(inner), reflect.TypeOf(wrapper)
	for _, opt := range optionalInterfaces[iface] {
		if got := wt.Implements(opt); got != it.Implements(opt) {
			t.Errorf("%v wrapping %v: implements %v = %v, wrapped value %v", wt, it, opt, got, !got)
		}
		if it.Implements(opt) {
			for _, m := range methodNames(opt) {
				want[m] = true
			}
		}
	}
	var wantList []string
	for m := range want {
		wantList = append(wantList, m)
	}
	sort.Strings(wantList)
	if got := methodNames(wt); !reflect.DeepEqual(got, wantList) {
		t.Errorf("%v wrapping %v: methods %v, want %v", wt, it, got, wantList)
	}
}

func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tr := NewTracer(1)
	m, err := addr.NewMapper(geometry.Default(), addr.KindSkylake)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(addr.BankDecoder); !ok {
		t.Fatal("the Skylake mapper no longer implements addr.BankDecoder; pick another fast-path mapper")
	}
	wm, err := wrapMapper(m, tr)
	if err != nil {
		t.Fatal(err)
	}
	checkForwarding(t, reflect.TypeOf((*addr.Mapper)(nil)).Elem(), m, wm)

	for _, k := range []mitigation.Kind{mitigation.KindPARA, mitigation.KindSilverBullet} {
		d, err := mitigation.For(k).RowDefense(geometry.Default().TotalBanks(), 1)
		if err != nil {
			t.Fatal(err)
		}
		checkForwarding(t, reflect.TypeOf((*mitigation.Mitigation)(nil)).Elem(), d, wrapMitigation(d, tr))
	}

	target := &attack.PhysTarget{}
	checkForwarding(t, reflect.TypeOf((*attack.Target)(nil)).Elem(), target, &fuzzTarget{t: target, tr: tr})
}

// TestWrappedMapperDecodesIdentically checks the traced fast path returns
// what the wrapped mapper returns, and records one span per call.
func TestWrappedMapperDecodesIdentically(t *testing.T) {
	m, err := addr.NewMapper(geometry.Default(), addr.KindSkylake)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracer(1)
	wm, err := wrapMapper(m, tr)
	if err != nil {
		t.Fatal(err)
	}
	w := wm.(addr.BankDecoder)
	for pa := uint64(0); pa < 1<<30; pa += 4099 * geometry.CacheLineSize {
		b1, r1, s1, e1 := m.(addr.BankDecoder).DecodeBank(pa)
		b2, r2, s2, e2 := w.DecodeBank(pa)
		if b1 != b2 || r1 != r2 || s1 != s2 || (e1 == nil) != (e2 == nil) {
			t.Fatalf("pa %#x: wrapped (%d,%d,%d,%v) != direct (%d,%d,%d,%v)", pa, b2, r2, s2, e2, b1, r1, s1, e1)
		}
	}
	if tr.Stat(lDecodeBank).calls == 0 {
		t.Fatal("no addr.decode_bank spans recorded")
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := NewTracer(1)
	tr.Begin(lGenerate)
	tr.Begin(lTranslate)
	tr.End()
	tr.Begin(lCtrl)
	tr.Begin(lDecodeBank)
	tr.End()
	tr.End()
	tr.End()
	g, tl, c, d := tr.Stat(lGenerate), tr.Stat(lTranslate), tr.Stat(lCtrl), tr.Stat(lDecodeBank)
	if g.busy != g.self+tl.busy+c.busy {
		t.Errorf("generate busy %v != self %v + children %v + %v", g.busy, g.self, tl.busy, c.busy)
	}
	if c.busy != c.self+d.busy {
		t.Errorf("ctrl busy %v != self %v + child %v", c.busy, c.self, d.busy)
	}
	if len(tr.spans) != 4 || tr.spans[0].Parent != -1 || tr.spans[1].Parent != 0 ||
		tr.spans[2].Parent != 0 || tr.spans[3].Parent != 2 {
		t.Errorf("span tree %+v", tr.spans)
	}
}
