package pgas

import "sync"

// Scratch pools for the run-list transfer paths: steady-state vectored
// puts and gets borrow run-offset lists and visibility-time lists here
// instead of allocating per call. Pools hold pointers to slices so returning
// a list never re-boxes the slice header. Payload bytes need no pool: the
// blocking paths hand the caller's typed buffer to the transport as a byte
// view (Bytes), and every transport is done with it when the call returns.

var (
	offsPool = sync.Pool{New: func() any { s := make([]int64, 0, 64); return &s }}
	tsPool   = sync.Pool{New: func() any { s := make([]float64, 0, 64); return &s }}
)

// GetOffsScratch borrows an offset list (for run-list transfers).
func GetOffsScratch() *[]int64 { return offsPool.Get().(*[]int64) }

// PutOffsScratch returns a borrowed offset list to the pool.
func PutOffsScratch(sp *[]int64) {
	*sp = (*sp)[:0]
	offsPool.Put(sp)
}

// GetTsScratch borrows a visibility-time list (for run-list transfers).
func GetTsScratch() *[]float64 { return tsPool.Get().(*[]float64) }

// PutTsScratch returns a borrowed visibility-time list to the pool.
func PutTsScratch(sp *[]float64) {
	*sp = (*sp)[:0]
	tsPool.Put(sp)
}
