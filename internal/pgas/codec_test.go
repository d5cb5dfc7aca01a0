package pgas

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// referenceEncode is the element-wise encoder the byte view replaced: each
// element marshalled on its own through binary.NativeEndian. It is the oracle
// that pins the view to the documented partition byte layout.
func referenceEncode[T Elem](src []T) []byte {
	out := make([]byte, len(src)*SizeOf[T]())
	switch s := any(src).(type) {
	case []byte:
		copy(out, s)
	case []int32:
		for i, v := range s {
			binary.NativeEndian.PutUint32(out[4*i:], uint32(v))
		}
	case []int64:
		for i, v := range s {
			binary.NativeEndian.PutUint64(out[8*i:], uint64(v))
		}
	case []uint64:
		for i, v := range s {
			binary.NativeEndian.PutUint64(out[8*i:], v)
		}
	case []float32:
		for i, v := range s {
			binary.NativeEndian.PutUint32(out[4*i:], math.Float32bits(v))
		}
	case []float64:
		for i, v := range s {
			binary.NativeEndian.PutUint64(out[8*i:], math.Float64bits(v))
		}
	default:
		panic(fmt.Sprintf("unsupported element type %T", src))
	}
	return out
}

// referenceDecode is referenceEncode's inverse, element by element.
func referenceDecode[T Elem](dst []T, src []byte) {
	switch d := any(dst).(type) {
	case []byte:
		copy(d, src)
	case []int32:
		for i := range d {
			d[i] = int32(binary.NativeEndian.Uint32(src[4*i:]))
		}
	case []int64:
		for i := range d {
			d[i] = int64(binary.NativeEndian.Uint64(src[8*i:]))
		}
	case []uint64:
		for i := range d {
			d[i] = binary.NativeEndian.Uint64(src[8*i:])
		}
	case []float32:
		for i := range d {
			d[i] = math.Float32frombits(binary.NativeEndian.Uint32(src[4*i:]))
		}
	case []float64:
		for i := range d {
			d[i] = math.Float64frombits(binary.NativeEndian.Uint64(src[8*i:]))
		}
	default:
		panic(fmt.Sprintf("unsupported element type %T", dst))
	}
}

// checkCodec compares EncodeSlice/DecodeSlice with the element-wise oracle,
// bit for bit (NaN payloads included), and checks that a short source panics.
func checkCodec[T Elem](t *testing.T, in []T) {
	t.Helper()
	want := referenceEncode(in)
	got := EncodeSlice([]byte{0xAA}, in)
	if got[0] != 0xAA || string(got[1:]) != string(want) {
		t.Fatalf("%T: EncodeSlice = % x, want prefix aa then % x", in, got, want)
	}
	dec := make([]T, len(in))
	DecodeSlice(dec, want)
	ref := make([]T, len(in))
	referenceDecode(ref, want)
	if string(Bytes(dec)) != string(Bytes(ref)) || string(Bytes(dec)) != string(want) {
		t.Fatalf("%T: DecodeSlice = % x, want % x", in, Bytes(dec), want)
	}
	if len(in) == 0 {
		return
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("%T: DecodeSlice from a short source did not panic", in)
		}
	}()
	DecodeSlice(make([]T, len(in)), want[:len(want)-1])
}

func TestCodecMatchesReference(t *testing.T) {
	nan64 := math.Float64frombits(0x7ff8_dead_beef_0001) // quiet NaN with a payload
	snan64 := math.Float64frombits(0x7ff0_0000_0000_0001)
	nan32 := math.Float32frombits(0x7fc0_1234)
	checkCodec(t, []byte{0, 1, 0x7f, 0x80, 0xff})
	checkCodec(t, []int32{0, 1, -1, math.MaxInt32, math.MinInt32, 0x01020304})
	checkCodec(t, []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 0x0102030405060708})
	checkCodec(t, []uint64{0, 1, 1 << 63, math.MaxUint64, 0x0102030405060708})
	checkCodec(t, []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		nan32, -nan32, math.SmallestNonzeroFloat32, math.MaxFloat32, 1.5})
	checkCodec(t, []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		nan64, snan64, -nan64, math.SmallestNonzeroFloat64, math.MaxFloat64, -2.25})
	checkCodec(t, []float64{})
}

func TestSizeOf(t *testing.T) {
	if SizeOf[byte]() != 1 {
		t.Fatal("byte size")
	}
	if SizeOf[int32]() != 4 || SizeOf[float32]() != 4 {
		t.Fatal("4-byte sizes")
	}
	if SizeOf[int64]() != 8 || SizeOf[uint64]() != 8 || SizeOf[float64]() != 8 {
		t.Fatal("8-byte sizes")
	}
}

func roundtrip[T Elem](t *testing.T, in []T) []T {
	t.Helper()
	enc := EncodeSlice[T](nil, in)
	if len(enc) != len(in)*SizeOf[T]() {
		t.Fatalf("encoded length %d, want %d", len(enc), len(in)*SizeOf[T]())
	}
	out := make([]T, len(in))
	DecodeSlice(out, enc)
	return out
}

func TestRoundtripFloat64(t *testing.T) {
	f := func(in []float64) bool {
		out := roundtrip(t, in)
		for i := range in {
			if in[i] != out[i] && !(in[i] != in[i] && out[i] != out[i]) { // NaN-safe
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundtripInt64(t *testing.T) {
	f := func(in []int64) bool {
		out := roundtrip(t, in)
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundtripInt32(t *testing.T) {
	f := func(in []int32) bool {
		out := roundtrip(t, in)
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundtripFloat32(t *testing.T) {
	in := []float32{0, 1.5, -2.25, 3.14159e10, -1e-20}
	out := roundtrip(t, in)
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("index %d: %v != %v", i, in[i], out[i])
		}
	}
}

func TestRoundtripBytes(t *testing.T) {
	in := []byte{0, 1, 127, 128, 255}
	out := roundtrip(t, in)
	for i := range in {
		if in[i] != out[i] {
			t.Fatal("byte roundtrip failed")
		}
	}
}

func TestRoundtripUint64(t *testing.T) {
	in := []uint64{0, 1, 1 << 63, ^uint64(0)}
	out := roundtrip(t, in)
	for i := range in {
		if in[i] != out[i] {
			t.Fatal("uint64 roundtrip failed")
		}
	}
}

func TestEncodeDecodeOne(t *testing.T) {
	b := EncodeOne(3.75)
	if got := DecodeOne[float64](b); got != 3.75 {
		t.Fatalf("got %v", got)
	}
	if got := DecodeOne[int32](EncodeOne(int32(-7))); got != -7 {
		t.Fatalf("got %v", got)
	}
}

func TestEncodeAppends(t *testing.T) {
	prefix := []byte{9, 9}
	enc := EncodeSlice(prefix, []int32{1})
	if len(enc) != 6 || enc[0] != 9 || enc[1] != 9 {
		t.Fatalf("EncodeSlice should append: %v", enc)
	}
}
