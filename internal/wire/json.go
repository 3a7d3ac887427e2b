package wire

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"prairie/internal/volcano"
)

// This file is the service's one JSON writer. Each function appends
// exactly the bytes encoding/json (HTML escaping on) writes for the
// same value: string escaping, float formatting, omitempty, and sorted
// map keys are all reproduced, so swapping the reflective encoder for
// these appenders changes no response byte. FuzzPlanJSON holds the
// equivalence against encoding/json.

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string literal.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				// Other control bytes, and <, > and & (HTML escaping).
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, "\\ufffd"...)
			i += size
			start = i
			continue
		}
		// U+2028 and U+2029 are valid JSON but not valid JavaScript;
		// encoding/json escapes them unconditionally.
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendFloat appends f as a JSON number. Infinities and NaN have no
// JSON form; like encoding/json, they are an error.
func AppendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9, as encoding/json does.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// AppendBool appends a JSON boolean.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, "true"...)
	}
	return append(b, "false"...)
}

// AppendKey appends a member name (one that needs no escaping) and its
// colon, preceded by a comma unless the member opens its object (the
// byte before is '{').
func AppendKey(b []byte, name string) []byte {
	if len(b) > 0 && b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	b = append(b, '"')
	b = append(b, name...)
	return append(b, '"', ':')
}

// MarshalJSON writes the plan node through AppendPlan.
func (n PlanNode) MarshalJSON() ([]byte, error) { return AppendPlan(nil, &n) }

// AppendPlan appends a serialized plan tree; a nil node is null.
func AppendPlan(b []byte, n *PlanNode) ([]byte, error) {
	if n == nil {
		return append(b, "null"...), nil
	}
	var err error
	b = append(b, '{')
	if n.Op != "" {
		b = AppendString(AppendKey(b, "op"), n.Op)
	}
	if n.File != "" {
		b = AppendString(AppendKey(b, "file"), n.File)
	}
	if len(n.Props) > 0 {
		b = append(AppendKey(b, "props"), '{')
		var stack [16]string
		for i, name := range sortedKeys(stack[:0], n.Props) {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(AppendString(b, name), ':')
			if b, err = appendPropValue(b, n.Props[name]); err != nil {
				return b, err
			}
		}
		b = append(b, '}')
	}
	if len(n.Kids) > 0 {
		b = append(AppendKey(b, "kids"), '[')
		for i, k := range n.Kids {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = AppendPlan(b, k); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// sortedKeys returns the map's keys in encoding/json order (byte-wise),
// insertion-sorted into buf: descriptors hold a handful of properties.
func sortedKeys(buf []string, m map[string]PropValue) []string {
	for k := range m {
		buf = append(buf, k)
		for i := len(buf) - 1; i > 0 && buf[i] < buf[i-1]; i-- {
			buf[i], buf[i-1] = buf[i-1], buf[i]
		}
	}
	return buf
}

func appendPropValue(b []byte, v PropValue) ([]byte, error) {
	var err error
	b = AppendString(append(b, `{"kind":`...), v.Kind)
	if v.Num != 0 {
		if b, err = AppendFloat(AppendKey(b, "num"), v.Num); err != nil {
			return b, err
		}
	}
	if v.Bool {
		b = append(AppendKey(b, "bool"), "true"...)
	}
	if v.Str != "" {
		b = AppendString(AppendKey(b, "str"), v.Str)
	}
	if len(v.Attr) > 0 {
		b = appendAttrs(AppendKey(b, "attrs"), v.Attr)
	}
	if v.Ord != nil {
		b = append(AppendKey(b, "order"), '{')
		if v.Ord.DontCare {
			b = append(AppendKey(b, "dont_care"), "true"...)
		}
		if len(v.Ord.By) > 0 {
			b = appendAttrs(AppendKey(b, "by"), v.Ord.By)
		}
		b = append(b, '}')
	}
	if v.Pred != nil {
		if b, err = appendPred(AppendKey(b, "pred"), v.Pred); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

func appendAttr(b []byte, a Attr) []byte {
	b = AppendString(append(b, `{"rel":`...), a.Rel)
	b = AppendString(append(b, `,"name":`...), a.Name)
	return append(b, '}')
}

func appendAttrs(b []byte, as []Attr) []byte {
	b = append(b, '[')
	for i, a := range as {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendAttr(b, a)
	}
	return append(b, ']')
}

func appendPred(b []byte, p *Pred) ([]byte, error) {
	if p == nil {
		return append(b, "null"...), nil
	}
	var err error
	b = AppendString(append(b, `{"op":`...), p.Op)
	if p.Left != nil {
		b = appendAttr(AppendKey(b, "left"), *p.Left)
	}
	if p.Right != nil {
		b = appendAttr(AppendKey(b, "right"), *p.Right)
	}
	if p.Const != nil {
		if b, err = appendPropValue(AppendKey(b, "const"), *p.Const); err != nil {
			return b, err
		}
	}
	if len(p.Kids) > 0 {
		b = append(AppendKey(b, "kids"), '[')
		for i, k := range p.Kids {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendPred(b, k); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

// A Rendering is a served plan in wire form, rendered once per reused
// plan-cache entry and kept in the entry's volcano.RenderSlot: Text is
// plan_text as a JSON string literal, Cost the plan's cost, and Plan
// the plan tree as JSON (nil until a request first asks for it).
type Rendering struct {
	Text []byte
	Cost float64
	Plan []byte
}

// Render returns the rendering of plan held in slot, completing it
// first when it is missing or, with withPlan, lacks the plan tree; the
// completed rendering is stored back for every later reader. A nil slot
// (a plan that is not cached) yields a one-off rendering. Concurrent
// renderers of one slot produce identical bytes, so whichever store
// lands last is as good as the first.
func Render(slot *volcano.RenderSlot, plan *volcano.PExpr, cost float64, withPlan bool) (*Rendering, error) {
	old, _ := slot.Load().(*Rendering)
	if old != nil && (old.Plan != nil || !withPlan) {
		return old, nil
	}
	r := &Rendering{}
	if old != nil {
		*r = *old
	} else {
		r.Text = AppendString(nil, plan.String())
		r.Cost = cost
	}
	if withPlan {
		pn, err := EncodePlan(plan)
		if err != nil {
			return nil, err
		}
		if r.Plan, err = AppendPlan(nil, pn); err != nil {
			return nil, err
		}
	}
	slot.Store(r)
	return r, nil
}
