package wire_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"prairie/internal/wire"
)

// planMirror is wire.PlanNode without its MarshalJSON method, so
// encoding/json encodes it by reflection: the reference the appender
// must match byte for byte.
type planMirror struct {
	Op    string                    `json:"op,omitempty"`
	File  string                    `json:"file,omitempty"`
	Props map[string]wire.PropValue `json:"props,omitempty"`
	Kids  []*planMirror             `json:"kids,omitempty"`
}

func mirror(n *wire.PlanNode) *planMirror {
	if n == nil {
		return nil
	}
	m := &planMirror{Op: n.Op, File: n.File, Props: n.Props}
	if n.Kids != nil {
		m.Kids = make([]*planMirror, len(n.Kids))
		for i, k := range n.Kids {
			m.Kids[i] = mirror(k)
		}
	}
	return m
}

// planGen grows a plan tree from fuzz bytes: every choice reads the
// next byte (zero once the input runs out), so a short input gives a
// small tree and the mutator steers every field.
type planGen struct {
	in    []byte
	depth int
}

func (g *planGen) byte() byte {
	if len(g.in) == 0 {
		return 0
	}
	b := g.in[0]
	g.in = g.in[1:]
	return b
}

// Strings that exercise every escaping rule: HTML characters, quotes
// and backslashes, control bytes, U+2028/U+2029, multi-byte and
// invalid UTF-8.
var fuzzStrings = []string{
	"", "R1", "File_scan", "<script>", "a>b", "x&y", "quo\"te", `back\slash`,
	"line\nfeed\ttab\rret", "\x00\x01\x1f", "\b\f", "sep\u2028par\u2029", "\u00e9\u6f22\u5b57",
	"\xff\xfe", "bad\xc3", "\xed\xa0\x80", "num_records", "tuple_order",
}

// Floats around every formatting boundary encoding/json has: negative
// zero, the 1e-6 and 1e21 switches to exponent form, large integers.
var fuzzFloats = []float64{
	0, math.Copysign(0, -1), 1, -2.5, 0.1, 1e-6, 1e-7, 9.99e-7, 1e20, 1e21, -1e21,
	123456789012345678, 1 << 53, math.MaxInt64, 5e-324, math.MaxFloat64, 201473.4412879908,
}

func (g *planGen) str() string {
	b := g.byte()
	if b&0x80 != 0 {
		// A raw slice of the input: arbitrary bytes.
		n := int(b & 0x0f)
		if n > len(g.in) {
			n = len(g.in)
		}
		s := string(g.in[:n])
		g.in = g.in[n:]
		return s
	}
	return fuzzStrings[int(b)%len(fuzzStrings)]
}

func (g *planGen) float() float64 {
	b := g.byte()
	if b&0x80 != 0 && len(g.in) >= 8 {
		f := math.Float64frombits(binary.LittleEndian.Uint64(g.in))
		g.in = g.in[8:]
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return 0
		}
		return f
	}
	return fuzzFloats[int(b)%len(fuzzFloats)]
}

func (g *planGen) attrs() []wire.Attr {
	n := int(g.byte() % 4)
	if n == 0 {
		return nil
	}
	out := make([]wire.Attr, n)
	for i := range out {
		out[i] = wire.Attr{Rel: g.str(), Name: g.str()}
	}
	return out
}

func (g *planGen) attr() *wire.Attr {
	if g.byte()%2 == 0 {
		return nil
	}
	return &wire.Attr{Rel: g.str(), Name: g.str()}
}

func (g *planGen) pred(depth int) *wire.Pred {
	if depth > 3 || g.byte()%5 == 0 {
		return nil
	}
	p := &wire.Pred{Op: g.str(), Left: g.attr(), Right: g.attr()}
	if g.byte()%3 == 0 {
		c := g.value(depth + 1)
		p.Const = &c
	}
	for n := int(g.byte() % 3); n > 0; n-- {
		p.Kids = append(p.Kids, g.pred(depth+1))
	}
	return p
}

func (g *planGen) value(depth int) wire.PropValue {
	v := wire.PropValue{Kind: g.str()}
	flags := g.byte()
	if flags&1 != 0 {
		v.Num = g.float()
	}
	v.Bool = flags&2 != 0
	if flags&4 != 0 {
		v.Str = g.str()
	}
	if flags&8 != 0 {
		v.Attr = g.attrs()
	}
	if flags&16 != 0 {
		v.Ord = &wire.Order{DontCare: g.byte()%2 == 0, By: g.attrs()}
	}
	if flags&32 != 0 && depth < 3 {
		v.Pred = g.pred(depth)
	}
	return v
}

func (g *planGen) node() *wire.PlanNode {
	n := &wire.PlanNode{Op: g.str(), File: g.str()}
	if np := int(g.byte() % 6); np > 0 {
		n.Props = map[string]wire.PropValue{}
		for ; np > 0; np-- {
			n.Props[g.str()] = g.value(0)
		}
	}
	if g.depth < 4 {
		g.depth++
		for k := int(g.byte() % 3); k > 0; k-- {
			if g.byte()%7 == 0 {
				n.Kids = append(n.Kids, nil)
				continue
			}
			n.Kids = append(n.Kids, g.node())
		}
		g.depth--
	}
	return n
}

// FuzzPlanJSON holds the plan appender to encoding/json: for random
// plan trees whose strings carry every escaping case and whose floats
// sit on every formatting boundary, AppendPlan (and PlanNode's
// MarshalJSON, through encoding/json's own Marshaler path) must write
// exactly the bytes reflection writes for the method-free mirror type.
func FuzzPlanJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 4, 2, 5, 0x3f, 7, 2, 9, 1, 0x21, 11, 12, 2, 1, 2, 3})
	f.Add([]byte("\x0b\x0c\x05\x17\xff\x01\x02\x03\x04\x05\x06\x07\x08\x09<>&\u2028\xff\xfe"))
	f.Add(bytes.Repeat([]byte{0x9f, 0x3f, 0x81, 0x01, 0x02, 0x8f}, 12))
	f.Fuzz(func(t *testing.T, in []byte) {
		n := (&planGen{in: in}).node()
		want, err := json.Marshal(mirror(n))
		if err != nil {
			t.Fatalf("reference encoding failed: %v", err)
		}
		got, err := wire.AppendPlan(nil, n)
		if err != nil {
			t.Fatalf("AppendPlan: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendPlan differs from encoding/json\n got %s\nwant %s", got, want)
		}
		viaMarshaler, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("json.Marshal(PlanNode): %v", err)
		}
		if !bytes.Equal(viaMarshaler, want) {
			t.Fatalf("PlanNode.MarshalJSON differs from encoding/json\n got %s\nwant %s", viaMarshaler, want)
		}
	})
}

// TestAppendFloatNonFinite: infinities and NaN are errors, as they are
// for encoding/json.
func TestAppendFloatNonFinite(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, err := wire.AppendFloat(nil, f); err == nil {
			t.Errorf("AppendFloat(%v) succeeded", f)
		}
		if _, err := json.Marshal(f); err == nil {
			t.Errorf("encoding/json accepted %v", f)
		}
	}
}
