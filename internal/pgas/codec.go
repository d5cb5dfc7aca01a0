package pgas

import (
	"fmt"
	"unsafe"
)

// Elem is the set of element types that may live in remotely-accessible
// memory. Partitions hold host-order bytes: the partition image of a typed
// slice is exactly its in-memory representation, so Bytes views one as the
// other and the put/get paths hand user buffers to the transport unchanged.
type Elem interface {
	byte | int32 | int64 | uint64 | float32 | float64
}

// SizeOf returns the encoded size in bytes of one element of type T.
func SizeOf[T Elem]() int {
	var v T
	return int(unsafe.Sizeof(v))
}

// Bytes returns the in-memory bytes of s: a view that aliases s, not a copy.
// Writing through the view writes s. A transport that receives the view as a
// blocking put's source must be done with it when the call returns.
func Bytes[T Elem](s []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*SizeOf[T]())
}

// EncodeSlice appends the partition bytes of src to dst and returns the
// extended buffer — an owned copy, for sources that must outlive the call.
func EncodeSlice[T Elem](dst []byte, src []T) []byte {
	return append(dst, Bytes(src)...)
}

// DecodeSlice fills dst from the partition bytes at the front of src, which
// must hold at least len(dst) elements.
func DecodeSlice[T Elem](dst []T, src []byte) {
	b := Bytes(dst)
	if len(src) < len(b) {
		panic(fmt.Sprintf("pgas: decoding %d bytes from a %d-byte buffer", len(b), len(src)))
	}
	copy(b, src)
}

// EncodeOne encodes a single element.
func EncodeOne[T Elem](v T) []byte {
	return EncodeSlice[T](nil, []T{v})
}

// DecodeOne decodes a single element from the front of src.
func DecodeOne[T Elem](src []byte) T {
	var out [1]T
	DecodeSlice[T](out[:], src)
	return out[0]
}
