package caf

import (
	"fmt"

	"cafshmem/internal/pgas"
)

// group is the internal object collective algorithms run over: an ordered
// member list with its own control-flag and staging areas. The whole-job
// group backs the co_* intrinsics; each Team carries its own group so that
// collectives on disjoint teams proceed concurrently without interference
// (their flags live at disjoint symmetric offsets, and flags are only ever
// written into member images' partitions).
type group struct {
	img     *Image
	n       int   // member count; members is nil for the identity whole-job group
	members []int // global 1-based image indices; members[0] is the root (nil = identity)
	myIdx   int   // 0-based position of this image in members

	ctlOff      int64
	scratchOff  int64
	scratchSize int64
	growable    bool // whole-job group may reallocate scratch collectively
	seq         int64
}

// worldGroup lazily builds the whole-job group view for this image.
func (img *Image) worldGroup() *group {
	if img.world == nil {
		img.world = &group{
			img:      img,
			n:        img.NumImages(),
			myIdx:    img.ThisImage() - 1,
			ctlOff:   img.ctlOff,
			growable: true,
		}
	}
	return img.world
}

func (g *group) size() int { return g.n }

// member returns the 1-based global image index of member i.
func (g *group) member(i int) int {
	if g.members == nil {
		return i + 1
	}
	return g.members[i]
}

// rounds returns ceil(log2(size)).
func (g *group) rounds() int {
	r := 0
	for v := 1; v < g.size(); v <<= 1 {
		r++
	}
	return r
}

func (g *group) nextSeq() int64 {
	g.seq++
	return g.seq
}

// ensureScratch sizes the staging buffer. The whole-job group grows it
// collectively; team groups have a fixed allocation from FormTeam and panic
// with a clear message when it is too small.
func (g *group) ensureScratch(bytes int64) int64 {
	if g.scratchSize >= bytes {
		return g.scratchOff
	}
	if !g.growable {
		panic(fmt.Sprintf("caf: team collective needs %d bytes of staging but the team was formed with %d; pass a larger scratch size to FormTeam", bytes, g.scratchSize))
	}
	img := g.img
	sz := g.scratchSize
	if sz == 0 {
		sz = 4096
	}
	for sz < bytes {
		sz *= 2
	}
	if g.scratchSize > 0 {
		img.tr.Free(g.scratchOff, g.scratchSize)
	}
	g.scratchOff = img.tr.Malloc(sz)
	g.scratchSize = sz
	markRuntimeAlloc(img.tr, g.scratchOff, sz)
	return g.scratchOff
}

// signalFlag writes seq into a member's group flag slot and completes it.
func (g *group) signalFlag(memberIdx, slot int, seq int64) {
	img := g.img
	img.tr.PutMem(g.member(memberIdx)-1, g.ctlOff+int64(slot)*8, pgas.EncodeOne(uint64(seq)))
	img.Stats.Puts++
	img.tr.Quiet()
	img.Stats.Quiets++
}

// awaitFlag spins on this image's group flag slot until it reaches seq.
func (g *group) awaitFlag(slot int, seq int64) {
	g.img.tr.WaitLocal64(g.ctlOff+int64(slot)*8, func(v int64) bool { return v >= seq })
}

// reduce runs the binomial gather-combine then distribution over the group.
// resultIdx < 0 distributes to every member; otherwise only members[resultIdx]
// receives the result.
func groupReduce[T pgas.Elem](g *group, vals []T, op func(a, b T) T, resultIdx int) []T {
	img := g.img
	n := g.size()
	out := append([]T(nil), vals...)
	if n == 1 {
		return out
	}
	es := int64(pgas.SizeOf[T]())
	nbytes := int64(len(vals)) * es
	rounds := g.rounds()
	scratch := g.ensureScratch(nbytes * int64(rounds+1))
	seq := g.nextSeq()
	rel := g.myIdx
	p := img.tr.(localMem).pgasPE()

	child := make([]T, len(vals))
	for k := 0; k < rounds; k++ {
		mask := 1 << k
		if rel&mask != 0 {
			parentIdx := rel - mask
			img.tr.PutMem(g.member(parentIdx)-1, scratch+int64(k)*nbytes, pgas.Bytes(out))
			img.Stats.Puts++
			img.tr.Quiet()
			img.Stats.Quiets++
			g.signalFlag(parentIdx, k, seq)
			break
		}
		if rel+mask >= n {
			continue
		}
		g.awaitFlag(k, seq)
		p.ReadLocal(scratch+int64(k)*nbytes, pgas.Bytes(child))
		for i := range out {
			out[i] = op(out[i], child[i])
		}
	}

	bslot := int64(rounds)
	if resultIdx < 0 {
		// Binomial distribution from the root through the same tree.
		if rel != 0 {
			g.awaitFlag(collMaxRounds+highBitCAF(rel), seq)
			p.ReadLocal(scratch+bslot*nbytes, pgas.Bytes(out))
		}
		start := 0
		if rel != 0 {
			start = highBitCAF(rel) + 1
		}
		for k := start; k < rounds; k++ {
			childRel := rel + (1 << k)
			if childRel >= n {
				break
			}
			img.tr.PutMem(g.member(childRel)-1, scratch+bslot*nbytes, pgas.Bytes(out))
			img.Stats.Puts++
			img.tr.Quiet()
			img.Stats.Quiets++
			g.signalFlag(childRel, collMaxRounds+k, seq)
		}
		return out
	}

	if rel == 0 && resultIdx != 0 {
		img.tr.PutMem(g.member(resultIdx)-1, scratch+bslot*nbytes, pgas.Bytes(out))
		img.Stats.Puts++
		img.tr.Quiet()
		img.Stats.Quiets++
		g.signalFlag(resultIdx, collMaxRounds, seq)
	}
	if rel == resultIdx && resultIdx != 0 {
		g.awaitFlag(collMaxRounds, seq)
		p.ReadLocal(scratch+bslot*nbytes, pgas.Bytes(out))
	}
	return out
}

// groupBroadcast distributes vals from members[sourceIdx] to every member.
func groupBroadcast[T pgas.Elem](g *group, vals []T, sourceIdx int) []T {
	img := g.img
	n := g.size()
	out := append([]T(nil), vals...)
	if n == 1 {
		return out
	}
	es := int64(pgas.SizeOf[T]())
	nbytes := int64(len(vals)) * es
	rounds := g.rounds()
	scratch := g.ensureScratch(nbytes * int64(rounds+1))
	seq := g.nextSeq()
	rel := (g.myIdx - sourceIdx + n) % n
	p := img.tr.(localMem).pgasPE()
	bslot := int64(rounds)

	if rel != 0 {
		g.awaitFlag(collMaxRounds+highBitCAF(rel), seq)
		p.ReadLocal(scratch+bslot*nbytes, pgas.Bytes(out))
	}
	start := 0
	if rel != 0 {
		start = highBitCAF(rel) + 1
	}
	for k := start; k < rounds; k++ {
		childRel := rel + (1 << k)
		if childRel >= n {
			break
		}
		childIdx := (childRel + sourceIdx) % n
		img.tr.PutMem(g.member(childIdx)-1, scratch+bslot*nbytes, pgas.Bytes(out))
		img.Stats.Puts++
		img.tr.Quiet()
		img.Stats.Quiets++
		g.signalFlag(childIdx, collMaxRounds+k, seq)
	}
	return out
}
