package stream

import "hash/maphash"

// objIndex maps a shard's object names to their objs slots: an
// open-addressing table with linear probing and backward-shift
// deletion, whose words pack a 32-bit hash tag above slot+1 (0 marks
// an empty word). A probe compares tags first and touches an object's
// name only on a tag match, so a lookup reads one cache line of words
// in the common case instead of a Go map's bucket and key slabs.
//
// The hash is maphash under a per-engine random seed, not the FNV-1a
// hash ShardIndex routes on: object names arrive over the network,
// FNV-1a collisions are easy to craft, and a probe table keyed on a
// public hash degrades to O(n) per lookup under such a stream. Only
// lookups depend on the seed, never results or the checkpoint.
//
// The table methods take the hash from the caller, so the differential
// fuzz test can force colliding tags; the shard wrappers (slotOf,
// indexAdd, indexDrop) hash with the seed.
type objIndex struct {
	seed  maphash.Seed
	words []uint64
	n     int // occupied words
}

// objIndexMinWords is the table size the first insert allocates.
const objIndexMinWords = 16

// hash is the index key of an object name.
func (t *objIndex) hash(name string) uint64 { return maphash.String(t.seed, name) }

// tagOf is the hash's upper half: it is stored in the word, and its
// low bits pick the home word, so resizing and backward shifts never
// need the name again.
func tagOf(h uint64) uint64 { return h >> 32 }

// find returns the slot of name (whose hash is h), or -1.
func (t *objIndex) find(objs []object, name string, h uint64) int {
	if len(t.words) == 0 {
		return -1
	}
	mask := uint64(len(t.words) - 1)
	tag := tagOf(h)
	for i := tag & mask; ; i = (i + 1) & mask {
		w := t.words[i]
		if w == 0 {
			return -1
		}
		if w>>32 == tag {
			if slot := int(uint32(w)) - 1; objs[slot].name == name {
				return slot
			}
		}
	}
}

// insert records slot under hash h. The caller has checked that the
// name is absent. The table doubles before it passes half full, which
// keeps a missing name's probe short: ingest looks up every new object
// before it inserts it.
func (t *objIndex) insert(h uint64, slot int) {
	if 2*(t.n+1) > len(t.words) {
		t.grow()
	}
	t.place(tagOf(h)<<32 | uint64(slot+1))
	t.n++
}

// reserve sizes an empty table for n names, so n inserts never grow it.
func (t *objIndex) reserve(n int) {
	if n == 0 {
		return
	}
	size := objIndexMinWords
	for size < 2*n {
		size *= 2
	}
	t.words = make([]uint64, size)
}

// place stores w in the first empty word from its home.
func (t *objIndex) place(w uint64) {
	mask := uint64(len(t.words) - 1)
	i := (w >> 32) & mask
	for t.words[i] != 0 {
		i = (i + 1) & mask
	}
	t.words[i] = w
}

// grow doubles the table and re-places every word from its tag.
func (t *objIndex) grow() {
	old := t.words
	t.words = make([]uint64, max(2*len(old), objIndexMinWords))
	for _, w := range old {
		if w != 0 {
			t.place(w)
		}
	}
}

// remove drops slot, indexed under hash h, and shifts the rest of its
// probe run back so no tombstone is left behind: every word stays
// reachable from its home without crossing an empty word.
func (t *objIndex) remove(h uint64, slot int) {
	mask := uint64(len(t.words) - 1)
	want := tagOf(h)<<32 | uint64(slot+1)
	i := tagOf(h) & mask
	for t.words[i] != want {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.words[j] != 0; j = (j + 1) & mask {
		// The word at j may move back to the hole at i only if its
		// home does not lie cyclically in (i, j].
		if home := (t.words[j] >> 32) & mask; (j-home)&mask >= (j-i)&mask {
			t.words[i] = t.words[j]
			i = j
		}
	}
	t.words[i] = 0
	t.n--
}

// slotOf returns the slot of the named live object, or -1.
func (sh *shard) slotOf(name string) int {
	return sh.index.find(sh.objs, name, sh.index.hash(name))
}

// indexAdd indexes slot ix under its object's name, whose hash is h.
// indexAdd and indexDrop are the only writers of the name set, so they
// also mark the cached name order stale. Caller holds sh.mu.
func (sh *shard) indexAdd(ix int, h uint64) {
	sh.index.insert(h, ix)
	sh.nameOK = false
}

// indexDrop removes slot ix from the index. Caller holds sh.mu.
func (sh *shard) indexDrop(ix int) {
	sh.index.remove(sh.index.hash(sh.objs[ix].name), ix)
	sh.nameOK = false
}
