package baseline

import "container/list"

// KV block accounting and the two prefix-reuse policies the paper's
// baselines implement: vLLM's block-hash automatic prefix caching and
// SGLang's RadixAttention token trie. Both are refcounted over the shared
// block pool and evict least-recently-used entries under pressure.

type blockPool struct {
	capacity int
	next     int32
	free     []int32
	refs     map[int32]int
}

func newBlockPool(capacity int) *blockPool {
	return &blockPool{capacity: capacity, refs: make(map[int32]int)}
}

func (p *blockPool) available() int { return len(p.free) + (p.capacity - int(p.next)) }
func (p *blockPool) inUse() int     { return int(p.next) - len(p.free) }

func (p *blockPool) alloc(n int) ([]int32, bool) {
	if p.available() < n {
		return nil, false
	}
	out := make([]int32, 0, n)
	for len(out) < n && len(p.free) > 0 {
		id := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		out = append(out, id)
	}
	for len(out) < n {
		out = append(out, p.next)
		p.next++
	}
	for _, id := range out {
		p.refs[id] = 1
	}
	return out, true
}

func (p *blockPool) retain(id int32) { p.refs[id]++ }

func (p *blockPool) release(id int32) {
	r := p.refs[id]
	if r <= 1 {
		delete(p.refs, id)
		p.free = append(p.free, id)
		return
	}
	p.refs[id] = r - 1
}

// prefixCache abstracts the reuse policy.
type prefixCache interface {
	// match returns how many leading prompt tokens are cached and the
	// blocks holding them (caller must retain them).
	match(prompt []int) (tokens int, blocks []int32)
	// insert registers a finished request's blocks for future reuse,
	// retaining them in the pool.
	insert(prompt []int, blocks []int32, pool *blockPool)
	// evict drops LRU entries until `need` blocks could be allocated; it
	// reports whether anything was freed.
	evict(pool *blockPool, need int) bool
}

type nullCache struct{}

func (nullCache) match([]int) (int, []int32)        { return 0, nil }
func (nullCache) insert([]int, []int32, *blockPool) {}
func (nullCache) evict(*blockPool, int) bool        { return false }

// fnv rolls an FNV-1a state over tokens.
func fnv(h uint64, tokens []int) uint64 {
	for _, t := range tokens {
		h = (h ^ uint64(t)) * 1099511628211
	}
	return h
}

// hashCache is vLLM-style: block i of a prompt is keyed by the rolling
// hash of tokens [0, (i+1)*pageSize), so walking a prompt rolls one state
// forward a block at a time.
type hashCache struct {
	pageSize int
	entries  map[uint64]*list.Element // of hashEntry
	// lru holds the entries least recently used first: a hit moves its entry
	// to the back and eviction takes the front, so entries of one age leave
	// in the order they were inserted or hit.
	lru *list.List
}

type hashEntry struct {
	key   uint64
	block int32
}

// chainSeed is the FNV-1a offset basis the block chain starts from.
const chainSeed uint64 = 14695981039346656037

func newHashCache(pageSize int) *hashCache {
	return &hashCache{pageSize: pageSize, entries: make(map[uint64]*list.Element), lru: list.New()}
}

func (c *hashCache) match(prompt []int) (int, []int32) {
	var blocks []int32
	key := chainSeed
	for i := 0; (i+1)*c.pageSize <= len(prompt); i++ {
		key = fnv(key, prompt[i*c.pageSize:(i+1)*c.pageSize])
		el, ok := c.entries[key]
		if !ok {
			break
		}
		c.lru.MoveToBack(el)
		blocks = append(blocks, el.Value.(hashEntry).block)
	}
	return len(blocks) * c.pageSize, blocks
}

func (c *hashCache) insert(prompt []int, blocks []int32, pool *blockPool) {
	key := chainSeed
	for i := 0; (i+1)*c.pageSize <= len(prompt) && i < len(blocks); i++ {
		key = fnv(key, prompt[i*c.pageSize:(i+1)*c.pageSize])
		if _, dup := c.entries[key]; dup {
			continue
		}
		pool.retain(blocks[i])
		c.entries[key] = c.lru.PushBack(hashEntry{key: key, block: blocks[i]})
	}
}

func (c *hashCache) evict(pool *blockPool, need int) bool {
	freed := false
	for pool.available() < need && c.lru.Len() > 0 {
		e := c.lru.Remove(c.lru.Front()).(hashEntry)
		pool.release(e.block)
		delete(c.entries, e.key)
		freed = true
	}
	return freed
}

// radixCache is SGLang's RadixAttention: a token trie whose edges are
// block-sized token runs.
type radixCache struct {
	pageSize int
	root     *radixNode
	tick     int
	size     int
}

type radixNode struct {
	children map[uint64]*radixNode // keyed by block-token hash
	block    int32
	lastUsed int
}

func newRadixCache(pageSize int) *radixCache {
	return &radixCache{pageSize: pageSize, root: &radixNode{children: map[uint64]*radixNode{}}}
}

func blockKey(block []int) uint64 { return fnv(1469598103934665603, block) }

func (c *radixCache) match(prompt []int) (int, []int32) {
	c.tick++
	node := c.root
	var blocks []int32
	for i := 0; (i+1)*c.pageSize <= len(prompt); i++ {
		key := blockKey(prompt[i*c.pageSize : (i+1)*c.pageSize])
		child, ok := node.children[key]
		if !ok {
			break
		}
		child.lastUsed = c.tick
		blocks = append(blocks, child.block)
		node = child
	}
	return len(blocks) * c.pageSize, blocks
}

func (c *radixCache) insert(prompt []int, blocks []int32, pool *blockPool) {
	c.tick++
	node := c.root
	for i := 0; (i+1)*c.pageSize <= len(prompt) && i < len(blocks); i++ {
		key := blockKey(prompt[i*c.pageSize : (i+1)*c.pageSize])
		child, ok := node.children[key]
		if !ok {
			pool.retain(blocks[i])
			child = &radixNode{children: map[uint64]*radixNode{}, block: blocks[i], lastUsed: c.tick}
			node.children[key] = child
			c.size++
		} else {
			child.lastUsed = c.tick
		}
		node = child
	}
}

// evict removes LRU leaves (RadixAttention evicts bottom-up).
func (c *radixCache) evict(pool *blockPool, need int) bool {
	freed := false
	for pool.available() < need && c.size > 0 {
		parent, key := c.lruLeaf(c.root)
		if parent == nil {
			break
		}
		pool.release(parent.children[key].block)
		delete(parent.children, key)
		c.size--
		freed = true
	}
	return freed
}

// lruLeaf finds the least-recently-used leaf edge, the smaller key on a tie.
func (c *radixCache) lruLeaf(n *radixNode) (parent *radixNode, key uint64) {
	best := int(^uint(0) >> 1)
	var walk func(node *radixNode)
	walk = func(node *radixNode) {
		for k, child := range node.children {
			if len(child.children) == 0 {
				if child.lastUsed < best || child.lastUsed == best && k < key {
					best, parent, key = child.lastUsed, node, k
				}
				continue
			}
			walk(child)
		}
	}
	walk(n)
	return parent, key
}
