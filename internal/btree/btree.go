// Package btree implements the disk-page-oriented B⁺-tree underlying the
// extended iDistance index. Keys are float64 (the one-dimensional iDistance
// keys); values are record IDs. Node fan-out is derived from a configurable
// page size, and every node visit is charged to an iostat.Counter so the
// experiments can report logical page I/O the way the paper does.
//
// Duplicate keys are allowed. Leaves are chained for range scans.
package btree

import (
	"fmt"
	"sort"

	"mmdr/internal/iostat"
)

// entryBytes approximates the on-page footprint of one key/pointer pair:
// an 8-byte float64 key plus an 8-byte pointer or record ID.
const entryBytes = 16

// Tree is a B⁺-tree over float64 keys. Create with New.
type Tree struct {
	order   int // max children of an internal node (= max keys of a leaf)
	root    *node
	size    int
	height  int
	counter iostat.Sink
}

type node struct {
	leaf     bool
	keys     []float64
	children []*node  // internal nodes: len(keys)+1 children
	rids     []uint32 // leaves: parallel to keys
	next     *node    // leaf chain
}

// New creates a tree whose node capacity matches pageSize bytes
// (pageSize <= 0 selects iostat.PageSize). counter may be nil.
func New(pageSize int, counter iostat.Sink) *Tree {
	return NewWithEntrySize(pageSize, entryBytes, counter)
}

// NewWithEntrySize creates a tree whose leaf entries occupy bytesPerEntry
// bytes each — used by iDistance, whose leaves store the reduced vectors
// alongside the key, so leaf fan-out (and therefore page I/O) depends on
// the retained dimensionality.
func NewWithEntrySize(pageSize, bytesPerEntry int, counter iostat.Sink) *Tree {
	if pageSize <= 0 {
		pageSize = iostat.PageSize
	}
	if bytesPerEntry <= 0 {
		bytesPerEntry = entryBytes
	}
	order := pageSize / bytesPerEntry
	if order < 4 {
		order = 4
	}
	return &Tree{
		order:   order,
		root:    &node{leaf: true},
		height:  1,
		counter: counter,
	}
}

// Order returns the node fan-out (for tests and diagnostics).
func (t *Tree) Order() int { return t.order }

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height in levels (1 = root-only).
func (t *Tree) Height() int { return t.height }

// touchLeaf charges a leaf-page access. Internal levels of a B⁺-tree are
// tiny (1-d keys) and assumed pinned in the buffer pool — the standard cost
// model, and the property §5 of the paper leans on — so only leaf accesses
// count as page I/O; internal visits are recorded as node accesses.
func (t *Tree) touchLeaf(read bool) {
	if t.counter == nil {
		return
	}
	t.counter.CountNodeAccesses(1)
	if read {
		t.counter.CountPageReads(1)
	} else {
		t.counter.CountPageWrites(1)
	}
}

func (t *Tree) touchInternal() {
	if t.counter != nil {
		t.counter.CountNodeAccesses(1)
	}
}

func (t *Tree) compare() {
	if t.counter != nil {
		t.counter.CountKeyCompares(1)
	}
}

// Insert adds (key, rid). Duplicates are kept.
func (t *Tree) Insert(key float64, rid uint32) {
	promoted, right := t.insert(t.root, key, rid)
	if promoted != nil {
		newRoot := &node{
			keys:     []float64{*promoted},
			children: []*node{t.root, right},
		}
		t.root = newRoot
		t.height++
	}
	t.size++
}

// insert descends recursively; on split it returns the promoted key and the
// new right sibling.
func (t *Tree) insert(n *node, key float64, rid uint32) (*float64, *node) {
	if n.leaf {
		t.touchLeaf(true)
		idx := t.searchKeys(n.keys, key)
		n.keys = append(n.keys, 0)
		copy(n.keys[idx+1:], n.keys[idx:])
		n.keys[idx] = key
		n.rids = append(n.rids, 0)
		copy(n.rids[idx+1:], n.rids[idx:])
		n.rids[idx] = rid
		t.touchLeaf(false)
		if len(n.keys) > t.order {
			return t.splitLeaf(n)
		}
		return nil, nil
	}
	t.touchInternal()
	childIdx := t.searchKeys(n.keys, key)
	promoted, right := t.insert(n.children[childIdx], key, rid)
	if promoted == nil {
		return nil, nil
	}
	// The separator and new right sibling belong exactly at the descent
	// position; re-searching by key would misplace them among duplicates.
	n.keys = append(n.keys, 0)
	copy(n.keys[childIdx+1:], n.keys[childIdx:])
	n.keys[childIdx] = *promoted
	n.children = append(n.children, nil)
	copy(n.children[childIdx+2:], n.children[childIdx+1:])
	n.children[childIdx+1] = right
	t.touchInternal()
	if len(n.children) > t.order {
		return t.splitInternal(n)
	}
	return nil, nil
}

// searchKeys returns the insertion position of key in keys (upper bound,
// so duplicates chain to the right) while charging key comparisons.
func (t *Tree) searchKeys(keys []float64, key float64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		t.compare()
		mid := (lo + hi) / 2
		if keys[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (t *Tree) splitLeaf(n *node) (*float64, *node) {
	mid := len(n.keys) / 2
	right := &node{
		leaf: true,
		keys: append([]float64(nil), n.keys[mid:]...),
		rids: append([]uint32(nil), n.rids[mid:]...),
		next: n.next,
	}
	n.keys = n.keys[:mid:mid]
	n.rids = n.rids[:mid:mid]
	n.next = right
	t.touchLeaf(false)
	t.touchLeaf(false)
	sep := right.keys[0]
	return &sep, right
}

func (t *Tree) splitInternal(n *node) (*float64, *node) {
	midKey := len(n.keys) / 2
	sep := n.keys[midKey]
	right := &node{
		keys:     append([]float64(nil), n.keys[midKey+1:]...),
		children: append([]*node(nil), n.children[midKey+1:]...),
	}
	n.keys = n.keys[:midKey:midKey]
	n.children = n.children[: midKey+1 : midKey+1]
	t.touchInternal()
	t.touchInternal()
	return &sep, right
}

// searchKeysLower returns the first index whose key is >= key (lower
// bound). Range scans descend with it so duplicate keys that straddle a
// node split are not skipped.
func (t *Tree) searchKeysLower(keys []float64, key float64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		t.compare()
		mid := (lo + hi) / 2
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findLeaf descends to the leftmost leaf that may contain key.
func (t *Tree) findLeaf(key float64) *node {
	n := t.root
	for !n.leaf {
		t.touchInternal()
		n = n.children[t.searchKeysLower(n.keys, key)]
	}
	t.touchLeaf(true)
	return n
}

// RangeAsc visits all entries with lo <= key <= hi in ascending key order.
// The visit function returns false to stop early. It returns the number of
// leaf pages read during the scan (query-explain telemetry; the same pages
// are also charged to the tree's counter).
func (t *Tree) RangeAsc(lo, hi float64, visit func(key float64, rid uint32) bool) (leaves int) {
	return t.RangeBetween(lo, hi, false, false, visit)
}

// RangeBetween visits entries between lo and hi in ascending key order,
// with each bound independently exclusive: excludeLo skips keys equal to
// lo, excludeHi skips keys equal to hi. Half-open scans are what the
// iDistance annulus re-scan needs — a growing search radius re-enters the
// key space exactly at the previous scan's edge, and an exclusive bound
// guarantees keys sitting precisely on that edge are neither skipped nor
// visited twice (the former ±1e-15 epsilon nudging could do either when a
// key landed inside the epsilon). The visit function returns false to stop
// early; the return value counts leaf pages read.
func (t *Tree) RangeBetween(lo, hi float64, excludeLo, excludeHi bool, visit func(key float64, rid uint32) bool) (leaves int) {
	//mmdr:ignore floatcmp half-open bound semantics are deliberately bitwise: keys equal to the previous scan's edge are excluded by exact equality, replacing the ±1e-15 epsilon hack
	if t.size == 0 || lo > hi || (lo == hi && (excludeLo || excludeHi)) {
		return 0
	}
	n := t.findLeaf(lo)
	leaves = 1
	// Position at the first in-range key inside the leaf: first >= lo, or
	// first > lo when the low bound is exclusive. Duplicate runs of lo may
	// straddle leaves, so the exclusive skip continues across the chain via
	// the key check in the scan loop.
	idx := sort.SearchFloat64s(n.keys, lo)
	for n != nil {
		for ; idx < len(n.keys); idx++ {
			t.compare()
			k := n.keys[idx]
			//mmdr:ignore floatcmp exclusive-bound key match is bitwise by contract — stored keys re-enter RangeBetween unmodified, so exact equality is the correct edge test
			if excludeLo && k == lo {
				continue
			}
			//mmdr:ignore floatcmp same bitwise exclusive-bound contract for the high edge
			if k > hi || (excludeHi && k == hi) {
				return leaves
			}
			if !visit(k, n.rids[idx]) {
				return leaves
			}
		}
		n = n.next
		if n != nil {
			leaves++
			t.touchLeaf(true)
		}
		idx = 0
	}
	return leaves
}

// WalkLeaves visits every leaf in chain order, handing the visitor the
// leaf's ordinal and its parallel key/rid slices. The walk is physical, not
// a query, so nothing is charged to the cost counter — it exists for
// building derived structures (the SoA scan layout) from the authoritative
// leaf order. The visitor must not retain or mutate the slices; returning
// false stops the walk.
func (t *Tree) WalkLeaves(visit func(ordinal int, keys []float64, rids []uint32) bool) {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	for ord := 0; n != nil; n = n.next {
		if !visit(ord, n.keys, n.rids) {
			return
		}
		ord++
	}
}

// Count returns the number of entries in [lo, hi].
func (t *Tree) Count(lo, hi float64) int {
	c := 0
	t.RangeAsc(lo, hi, func(float64, uint32) bool { c++; return true })
	return c
}

// Min returns the smallest key (ok=false when empty).
func (t *Tree) Min() (key float64, ok bool) {
	if t.size == 0 {
		return 0, false
	}
	n := t.root
	for !n.leaf {
		t.touchInternal()
		n = n.children[0]
	}
	t.touchLeaf(true)
	return n.keys[0], true
}

// Max returns the largest key (ok=false when empty).
func (t *Tree) Max() (key float64, ok bool) {
	if t.size == 0 {
		return 0, false
	}
	n := t.root
	for !n.leaf {
		t.touchInternal()
		n = n.children[len(n.children)-1]
	}
	t.touchLeaf(true)
	return n.keys[len(n.keys)-1], true
}

// LeafPages returns the number of leaf nodes, i.e. the data-page footprint.
func (t *Tree) LeafPages() int {
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	count := 0
	for ; n != nil; n = n.next {
		count++
	}
	return count
}

// checkInvariants validates ordering and structure; used by tests.
func (t *Tree) checkInvariants() error {
	var prev *float64
	count := 0
	var walk func(n *node, depth int) error
	leafDepth := -1
	walk = func(n *node, depth int) error {
		if n.leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("btree: leaves at depths %d and %d", leafDepth, depth)
			}
			for i, k := range n.keys {
				if prev != nil && k < *prev {
					return fmt.Errorf("btree: key order violated: %v after %v", k, *prev)
				}
				kk := k
				prev = &kk
				count++
				_ = i
			}
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("btree: internal node with %d keys, %d children", len(n.keys), len(n.children))
		}
		for _, c := range n.children {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("btree: size %d but %d entries reachable", t.size, count)
	}
	return nil
}

// Delete removes one entry matching (key, rid), searching the duplicate run
// of key left to right. Removal is lazy: the entry leaves its leaf but no
// rebalancing occurs (under-full leaves are tolerated, the common choice in
// production B-trees given random workloads). It reports whether an entry
// was removed.
func (t *Tree) Delete(key float64, rid uint32) bool {
	if t.size == 0 {
		return false
	}
	n := t.findLeaf(key)
	idx := sort.SearchFloat64s(n.keys, key)
	for n != nil {
		for ; idx < len(n.keys); idx++ {
			t.compare()
			if n.keys[idx] > key {
				return false
			}
			if n.rids[idx] == rid {
				n.keys = append(n.keys[:idx], n.keys[idx+1:]...)
				n.rids = append(n.rids[:idx], n.rids[idx+1:]...)
				t.touchLeaf(false)
				t.size--
				return true
			}
		}
		n = n.next
		if n != nil {
			t.touchLeaf(true)
		}
		idx = 0
	}
	return false
}
