package jsonx

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
)

func stdString(t *testing.T, s string) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("json.Marshal(%q): %v", s, err)
	}
	return string(b)
}

func TestAppendStringParity(t *testing.T) {
	cases := []string{
		"",
		"plain ascii",
		`quotes " and \ backslash`,
		"controls \x00\x01\x1f\b\f\n\r\t",
		"html <b>&amp;</b>",
		"unicode: héllo, 世界, emoji 🎉",
		"line seps   and   embedded",
		"invalid utf8: \xff\xfe trailing",
		"lone continuation \x80 byte",
		"truncated rune \xe2\x82",
		strings.Repeat("a", 300) + "\"" + strings.Repeat("b", 300),
		"� literal replacement char",
	}
	for _, s := range cases {
		got := string(AppendString(nil, s))
		want := stdString(t, s)
		if got != want {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
}

func TestAppendFloatParity(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 3.14159,
		1e-6, 9.999e-7, 1e-7, 1e20, 1e21, 1.5e21, -2.25e22,
		1e-21, 5e-324, math.MaxFloat64, -math.MaxFloat64,
		123456789.123456789, 2, 100, 2000, 0.1, 1.0 / 3.0,
		6.62607015e-34, 2.718281828459045,
	}
	for _, f := range cases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatalf("json.Marshal(%v): %v", f, err)
		}
		got, ok := AppendFloat(nil, f)
		if !ok {
			t.Errorf("AppendFloat(%v) refused a finite value", f)
			continue
		}
		if string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, want %s", f, got, want)
		}
	}
}

func TestAppendFloatRejectsNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b, ok := AppendFloat([]byte("prefix"), f)
		if ok {
			t.Errorf("AppendFloat(%v) ok=true, want rejection", f)
		}
		if string(b) != "prefix" {
			t.Errorf("AppendFloat(%v) mutated the buffer: %q", f, b)
		}
	}
}

func TestAppendIntBool(t *testing.T) {
	if got := string(AppendInt(nil, -42)); got != "-42" {
		t.Errorf("AppendInt = %s", got)
	}
	if got := string(AppendUint(nil, 18446744073709551615)); got != "18446744073709551615" {
		t.Errorf("AppendUint = %s", got)
	}
	if got := string(AppendBool(AppendBool(nil, true), false)); got != "truefalse" {
		t.Errorf("AppendBool = %s", got)
	}
}

func FuzzAppendStringParity(f *testing.F) {
	f.Add("")
	f.Add("hello")
	f.Add("a\"b\\c\nd<e>&\x00\x1f")
	f.Add("\xff\x80ut 8")
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Skip()
		}
		got := AppendString(nil, s)
		if string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	})
}

func FuzzAppendFloatParity(f *testing.F) {
	f.Add(0.0)
	f.Add(1e-6)
	f.Add(1e21)
	f.Add(-123.456)
	f.Fuzz(func(t *testing.T, v float64) {
		want, err := json.Marshal(v)
		got, ok := AppendFloat(nil, v)
		if (err == nil) != ok {
			t.Fatalf("AppendFloat(%v) ok=%v, json err=%v", v, ok, err)
		}
		if ok && string(got) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, want %s", v, got, want)
		}
	})
}

func TestDecPrimitives(t *testing.T) {
	d := &Dec{Data: []byte(` { "field_side" : 32.5 , "k":2, "name":"halton", "neg":-7 } `)}
	if !d.Consume('{') {
		t.Fatal("expected {")
	}
	key, ok := d.Key()
	if !ok || string(key) != "field_side" {
		t.Fatalf("Key = %q, %v", key, ok)
	}
	f, ok := d.Float()
	if !ok || f != 32.5 {
		t.Fatalf("Float = %v, %v", f, ok)
	}
	if !d.Consume(',') {
		t.Fatal("expected ,")
	}
	if key, ok = d.Key(); !ok || string(key) != "k" {
		t.Fatalf("Key = %q, %v", key, ok)
	}
	n, ok := d.Int()
	if !ok || n != 2 {
		t.Fatalf("Int = %v, %v", n, ok)
	}
	d.Consume(',')
	if key, ok = d.Key(); !ok || string(key) != "name" {
		t.Fatalf("Key = %q, %v", key, ok)
	}
	s, ok := d.Str()
	if !ok || string(s) != "halton" {
		t.Fatalf("Str = %q, %v", s, ok)
	}
	d.Consume(',')
	if key, ok = d.Key(); !ok || string(key) != "neg" {
		t.Fatalf("Key = %q, %v", key, ok)
	}
	if n, ok = d.Int(); !ok || n != -7 {
		t.Fatalf("Int = %v, %v", n, ok)
	}
	if !d.Consume('}') {
		t.Fatal("expected }")
	}
	if !d.AtEnd() {
		t.Fatal("expected end")
	}
}

// TestDecBails: every primitive fails where its input leaves the
// grammar.
func TestDecBails(t *testing.T) {
	bails := []struct {
		name string
		run  func() bool
	}{
		{"key missing colon", func() bool { _, ok := (&Dec{Data: []byte(`"k" 1`)}).Key(); return ok }},
		{"key unterminated", func() bool { _, ok := (&Dec{Data: []byte(`"kk`)}).Key(); return ok }},
		{"key with bad escape", func() bool { _, ok := (&Dec{Data: []byte(`"K\x":`)}).Key(); return ok }},
		{"string unterminated", func() bool { _, ok := (&Dec{Data: []byte(`"abc`)}).Str(); return ok }},
		{"string with control byte", func() bool { _, ok := (&Dec{Data: []byte("\"a\nb\"")}).Str(); return ok }},
		{"string with bad escape", func() bool { _, ok := (&Dec{Data: []byte(`"a\'b"`)}).Str(); return ok }},
		{"string with short \\u", func() bool { _, ok := (&Dec{Data: []byte(`"\u12"`)}).Str(); return ok }},
		{"string ending in \\", func() bool { _, ok := (&Dec{Data: []byte(`"a\`)}).Str(); return ok }},
		{"null cut short", func() bool { return (&Dec{Data: []byte(`nul`)}).Null() }},
		{"int with fraction", func() bool { _, ok := (&Dec{Data: []byte(`3.0`)}).Int(); return ok }},
		{"int with exponent", func() bool { _, ok := (&Dec{Data: []byte(`1e2`)}).Int(); return ok }},
		{"int overflow", func() bool { _, ok := (&Dec{Data: []byte(`99999999999999999999`)}).Int(); return ok }},
		{"uint negative", func() bool { _, ok := (&Dec{Data: []byte(`-1`)}).Uint(); return ok }},
		{"number bare minus", func() bool { _, ok := (&Dec{Data: []byte(`-`)}).Float(); return ok }},
		{"number bare dot", func() bool { _, ok := (&Dec{Data: []byte(`1.`)}).Float(); return ok }},
		{"number bare exp", func() bool { _, ok := (&Dec{Data: []byte(`1e`)}).Float(); return ok }},
		{"not a number", func() bool { _, ok := (&Dec{Data: []byte(`null`)}).Float(); return ok }},
	}
	for _, c := range bails {
		if c.run() {
			t.Errorf("%s: ok=true, want bail", c.name)
		}
	}
}

// strOracle reads data as one JSON string with encoding/json, the way
// callers read a string with Str: ok is false for anything else, null
// included.
func strOracle(data []byte) (string, bool) {
	var s *string
	if err := json.Unmarshal(data, &s); err != nil || s == nil {
		return "", false
	}
	return *s, true
}

// checkStringParity reads data as a string value with Str, and as an
// object key with Key, and fails unless both agree with the oracle on
// acceptance and decoded bytes.
func checkStringParity(t testing.TB, data []byte) {
	want, wantOK := strOracle(data)
	d := Dec{Data: data}
	s, ok := d.Str()
	if ok = ok && d.AtEnd(); ok != wantOK || ok && string(s) != want {
		t.Fatalf("Str(%q) = %q, %v; encoding/json: %q, %v", data, s, ok, want, wantOK)
	}
	d = Dec{Data: append(append([]byte(nil), data...), ':')}
	k, ok := d.Key()
	if ok = ok && d.AtEnd(); ok != wantOK || ok && string(k) != want {
		t.Fatalf("Key(%q:) = %q, %v; encoding/json: %q, %v", data, k, ok, want, wantOK)
	}
}

// stringEdges are string literals at the edges of JSON's string grammar
// and of UTF-8 and UTF-16.
var stringEdges = []string{
	`""`, `"a"`, `"field_side"`, `"Field_Side"`, `"halton-scrambled"`, ` "ws" `,
	`"\"\\\/\b\f\n\r\t"`, `"\u0041\u00e9\u4e16\uFFFD"`, `"\u0000"`,
	`"\ud83c\udf89"`, `"\uD83C\uDF89"`, `"\ud83c"`, `"\udf89"`, `"\udf89\ud83c"`,
	`"\ud83c\u0041"`, `"\ud83c\ud83c\udf89"`, `"\ud83cx"`, `"\ud83c\"`, `"\ud83c\u12"`,
	"\"h\xc3\xa9llo \xe4\xb8\x96 \xf0\x9f\x8e\x89\"", "\"\xff\xfe\"", "\"\xed\xa0\x80\"",
	"\"\xe2\x82\"", "\"\xef\xbf\xbd\"", "\"\x7f\"", "\"\x1f\"", "\"\t\"",
	`"\x"`, `"\'"`, `"\U0041"`, `"\u00g0"`, `"\u12`, `"\`, `"abc`, `abc"`, `null`, `"a" "b"`,
}

func TestDecStringParity(t *testing.T) {
	for _, s := range stringEdges {
		checkStringParity(t, []byte(s))
	}
	// An escape-free ASCII string is a view of Data, never a copy.
	d := Dec{Data: []byte(`"plain"`)}
	if s, ok := d.Str(); !ok || &s[0] != &d.Data[1] {
		t.Errorf("Str copied an escape-free string")
	}
	data := []byte(`"Plain ASCII, not a key"`)
	if n := testing.AllocsPerRun(100, func() {
		d := Dec{Data: data}
		d.Str()
	}); n != 0 {
		t.Errorf("Str of an escape-free string: %v allocs", n)
	}
}

// FuzzDecStringParity holds Str and Key to encoding/json on any input.
func FuzzDecStringParity(f *testing.F) {
	for _, s := range stringEdges {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkStringParity(t, data) })
}

func TestDecNumberForms(t *testing.T) {
	for _, c := range []struct {
		in   string
		want float64
	}{
		{"0", 0}, {"-0", math.Copysign(0, -1)}, {"0.5", 0.5}, {"1e2", 100},
		{"1E+2", 100}, {"2.5e-3", 0.0025}, {"123456", 123456},
	} {
		d := &Dec{Data: []byte(c.in)}
		f, ok := d.Float()
		if !ok || f != c.want || !d.AtEnd() {
			t.Errorf("Float(%q) = %v, ok=%v", c.in, f, ok)
		}
	}
	// Leading-zero trailing garbage must not be silently swallowed: "01"
	// scans "0" then leaves "1" — callers always check structure after.
	d := &Dec{Data: []byte(`01`)}
	if f, ok := d.Float(); ok && d.AtEnd() {
		t.Errorf("Float(01) consumed all input as %v", f)
	}
}

func TestBufPool(t *testing.T) {
	p := GetBuf()
	if len(*p) != 0 {
		t.Fatalf("GetBuf returned non-empty buffer len=%d", len(*p))
	}
	*p = append(*p, "data"...)
	PutBuf(p)
	big := make([]byte, 0, maxPooledBuf+1)
	PutBuf(&big) // must not retain; nothing observable, just must not panic
	PutBuf(nil)
}

// number returns the strict JSON literal at d.Pos (whitespace already
// skipped) without converting it, for strconv to read a second time.
// With the strconv readers below it is the oracle the one-pass scanner
// is held to: same value bits, same ok, same stop byte.
func (d *Dec) number() (tok []byte, isInt, ok bool) {
	start := d.Pos
	i := d.Pos
	data := d.Data
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && data[i] >= '1' && data[i] <= '9':
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
	default:
		return nil, false, false
	}
	isInt = true
	if i < len(data) && data[i] == '.' {
		isInt = false
		i++
		if i >= len(data) || data[i] < '0' || data[i] > '9' {
			return nil, false, false
		}
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		isInt = false
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || data[i] < '0' || data[i] > '9' {
			return nil, false, false
		}
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
	}
	d.Pos = i
	return data[start:i], isInt, true
}

func strconvFloat(d *Dec) (float64, bool) {
	d.SkipWS()
	tok, _, ok := d.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(noCopyString(tok), 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

func strconvInt(d *Dec) (int64, bool) {
	d.SkipWS()
	tok, isInt, ok := d.number()
	if !ok || !isInt {
		return 0, false
	}
	v, err := strconv.ParseInt(noCopyString(tok), 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

func strconvUint(d *Dec) (uint64, bool) {
	d.SkipWS()
	tok, isInt, ok := d.number()
	if !ok || !isInt || tok[0] == '-' {
		return 0, false
	}
	v, err := strconv.ParseUint(noCopyString(tok), 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// checkNumberParity reads data with Float, Int and Uint and with their
// oracles, and fails unless value bits, ok and stop position agree.
func checkNumberParity(t testing.TB, data []byte) {
	a, b := Dec{Data: data}, Dec{Data: data}
	f, ok := a.Float()
	wf, wok := strconvFloat(&b)
	if ok != wok || math.Float64bits(f) != math.Float64bits(wf) || a.Pos != b.Pos {
		t.Fatalf("Float(%q) = %v (%#x), ok=%v, pos %d; strconv: %v (%#x), ok=%v, pos %d",
			data, f, math.Float64bits(f), ok, a.Pos, wf, math.Float64bits(wf), wok, b.Pos)
	}
	a, b = Dec{Data: data}, Dec{Data: data}
	i, ok := a.Int()
	wi, wok := strconvInt(&b)
	if ok != wok || i != wi || a.Pos != b.Pos {
		t.Fatalf("Int(%q) = %d, ok=%v, pos %d; strconv: %d, ok=%v, pos %d", data, i, ok, a.Pos, wi, wok, b.Pos)
	}
	a, b = Dec{Data: data}, Dec{Data: data}
	u, ok := a.Uint()
	wu, wok := strconvUint(&b)
	if ok != wok || u != wu || a.Pos != b.Pos {
		t.Fatalf("Uint(%q) = %d, ok=%v, pos %d; strconv: %d, ok=%v, pos %d", data, u, ok, a.Pos, wu, wok, b.Pos)
	}
}

// numberEdges are literals at the edges of the grammar and of float64,
// int64 and uint64.
var numberEdges = []string{
	"0", "-0", "0e5", "-0e-5", "0.0", "-0.000", "0E+0", "1e2", "1E2", "1e+2", "1E-2",
	"0.000123", "0.0001230", "1e007", "1.5e-007", "100", "1000000000000000000000",
	"1e400", "-1e400", "1e-400", "-1e-400", "1e99999999999", "1e-99999999999",
	"5e-324", "4.9406564584124654e-324", "2.4703282292062327e-324",
	"2.4703282292062328e-324", "2.2250738585072011e-308", "2.2250738585072012e-308",
	"2.2250738585072014e-308", "1.7976931348623157e308", "1.7976931348623158e308",
	"1.7976931348623159e308", "1e23", "8.98846567431158e307", "9007199254740993",
	"9007199254740992.5", "4503599627370496.5", "123456789012345678901234567890",
	"1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124",
	"0.1", "0.30000000000000004", "22.222222222222222", "1e22", "1e-22", "9e22",
	"4503599627370495e22", "4503599627370496e-22",
	"9223372036854775807", "9223372036854775808", "-9223372036854775808",
	"-9223372036854775809", "18446744073709551615", "18446744073709551616",
	"99999999999999999999", "-18446744073709551615",
	"01", "-", "-a", "1.", "1.e5", ".5", "+1", "1e", "1e+", "1ee5", "1.5.5", "--1", "-01", "1x",
}

// genNumber appends one generated literal to b, drawn from the shapes
// request bodies carry and from the conversions' hard cases, with a
// stray byte after it a quarter of the time to exercise the stop position.
func genNumber(r *rand.Rand, b []byte) []byte {
	switch r.IntN(8) {
	case 0: // shortest forms of random bit patterns
		f := math.Float64frombits(r.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			f = float64(r.Int64())
		}
		b = strconv.AppendFloat(b, f, "eg"[r.IntN(2)], -1, 64)
	case 1: // repair-body coordinates, rendered as encoding/json does
		b, _ = AppendFloat(b, r.Float64()*100)
	case 2: // 'e' and 'f' forms with 0–30 digits
		f := r.Float64() * math.Pow(10, float64(r.IntN(60)-30))
		if r.IntN(2) == 0 {
			f = -f
		}
		b = strconv.AppendFloat(b, f, "ef"[r.IntN(2)], r.IntN(31), 64)
	case 3: // mantissas of more than 19 digits
		if r.IntN(2) == 0 {
			b = append(b, '-')
		}
		n := 20 + r.IntN(30)
		dot := r.IntN(n + 1)
		b = append(b, byte('1'+r.IntN(9)))
		for i := 1; i < n; i++ {
			if i == dot {
				b = append(b, '.')
			}
			d := byte('0' + r.IntN(10))
			if r.IntN(4) == 0 {
				d = "09"[r.IntN(2)] // runs of zeros and nines sit near ties
			}
			b = append(b, d)
		}
		if r.IntN(2) == 0 {
			b = strconv.AppendInt(append(b, 'e'), int64(r.IntN(700)-350), 10)
		}
	case 4: // the smallest normals; 1 in 32 a subnormal or a few ulps of 2^-1074
		f := math.Float64frombits(1<<52 + r.Uint64N(1<<56))
		if r.IntN(32) == 0 {
			// Both sides parse these with strconv's slow path, which
			// costs 25–35 µs a literal.
			f = math.Float64frombits(r.Uint64N(1 << 52))
			if r.IntN(4) == 0 {
				f = math.Float64frombits(r.Uint64N(16))
			}
		}
		b = strconv.AppendFloat(b, f, 'e', r.IntN(31)-1, 64)
	case 5: // integers near 0 and the int64 and uint64 boundaries
		base := [...]uint64{0, 1 << 63, math.MaxUint64, 1 << 53}[r.IntN(4)]
		v := base + uint64(r.IntN(2001)) - 1000
		if r.IntN(2) == 0 {
			b = append(b, '-')
		}
		b = strconv.AppendUint(b, v, 10)
	case 6: // random mantissas of 1–19 digits across the exponent range
		if r.IntN(2) == 0 {
			b = append(b, '-')
		}
		b = strconv.AppendUint(b, r.Uint64N(uint64(math.Pow10(1+r.IntN(19)))), 10)
		if r.IntN(3) == 0 {
			b = strconv.AppendUint(append(b, '.'), r.Uint64N(1000), 10)
		}
		b = append(b, "eE"[r.IntN(2)])
		b = append(b, "+-"[r.IntN(2)])
		b = strconv.AppendInt(b, int64(r.IntN(720)), 10)
	case 7: // grammar soup
		for n := 1 + r.IntN(8); n > 0; n-- {
			b = append(b, "0123456789-+.eE"[r.IntN(15)])
		}
	}
	if r.IntN(4) == 0 {
		b = append(b, ",]} \t.eE+-0x"[r.IntN(12)])
	}
	return b
}

func TestDecNumberParity(t *testing.T) {
	for _, s := range numberEdges {
		checkNumberParity(t, []byte(s))
	}
	r := rand.New(rand.NewPCG(19, 2007))
	var b []byte
	for i := 0; i < 1<<20; i++ {
		b = genNumber(r, b[:0])
		checkNumberParity(t, b)
	}
	// The integer boundaries, against strconv itself.
	for _, s := range []string{
		"0", "-0", "9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"-9223372036854775809", "18446744073709551615", "18446744073709551616",
	} {
		i, ok := (&Dec{Data: []byte(s)}).Int()
		wi, err := strconv.ParseInt(s, 10, 64)
		if ok != (err == nil) || ok && i != wi {
			t.Errorf("Int(%s) = %d, %v; strconv.ParseInt: %d, %v", s, i, ok, wi, err)
		}
		u, ok := (&Dec{Data: []byte(s)}).Uint()
		wu, err := strconv.ParseUint(s, 10, 64)
		if ok != (err == nil) || ok && u != wu {
			t.Errorf("Uint(%s) = %d, %v; strconv.ParseUint: %d, %v", s, u, ok, wu, err)
		}
	}
}

// FuzzDecNumberParity holds Float, Int and Uint to their oracles on any
// input, starting from a committed corpus of float64, int64 and uint64
// boundary literals.
func FuzzDecNumberParity(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { checkNumberParity(t, data) })
}

// TestPow10Table pins entries of the computed table to the published
// Eisel–Lemire values.
func TestPow10Table(t *testing.T) {
	for _, c := range []struct {
		e      int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{0, 0, 0x8000000000000000},
		{23, 0, 0xA968163F0A57B400},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := pow10Table()[c.e-pow10Min]; got != [2]uint64{c.lo, c.hi} {
			t.Errorf("1e%d = {%#x, %#x}, want {%#x, %#x}", c.e, got[0], got[1], c.lo, c.hi)
		}
	}
}

// repairCoords returns 1 024 literals shaped like a repair body's
// coordinates: r.Float64()*100 rendered as encoding/json does.
func repairCoords() [][]byte {
	r := rand.New(rand.NewPCG(1, 1))
	lits := make([][]byte, 1024)
	for i := range lits {
		lits[i], _ = AppendFloat(nil, r.Float64()*100)
	}
	return lits
}

// floatSink keeps the benchmarks' conversions from being optimized away.
var floatSink float64

// BenchmarkDecFloat reads the 1 024 repairCoords literals per op with
// the one-pass Float; BenchmarkDecFloatStrconv reads them with the
// oracle. BENCH_gates.txt holds their ratio from one run.
func BenchmarkDecFloat(b *testing.B) {
	lits := repairCoords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lit := range lits {
			d := Dec{Data: lit}
			f, ok := d.Float()
			if !ok {
				b.Fatalf("Float(%s) bailed", lit)
			}
			floatSink = f
		}
	}
}

func BenchmarkDecFloatStrconv(b *testing.B) {
	lits := repairCoords()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lit := range lits {
			d := Dec{Data: lit}
			f, ok := strconvFloat(&d)
			if !ok {
				b.Fatalf("strconvFloat(%s) bailed", lit)
			}
			floatSink = f
		}
	}
}
