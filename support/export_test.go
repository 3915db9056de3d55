package support

import "pie/api"

// AttentionPages exposes the cached attention-input page list to tests.
func (c *Context) AttentionPages() []api.KvPage { return c.ctxPages() }

// PinnedPages exposes the read-only prefix set by ComposeContext.
func (c *Context) PinnedPages() []api.KvPage { return c.pinned }

// Pending exposes the tokens accepted but not yet issued.
func (c *Context) Pending() []int { return c.pend }

// WorkingSet is the record the context's working set goes back in, nil if
// its session keeps no free list or the set went back already.
func (c *Context) WorkingSet() any {
	if c.home == nil {
		return nil
	}
	return c.home
}

// PoisonWorkingSet overwrites everything a working set handed back holds,
// up to each buffer's capacity, with what no live context writes: -1 for
// positions and tokens, an invalid handle for pages and embeds. A context
// that reads a buffer after handing it back then reads poison.
func PoisonWorkingSet(set any) {
	ws := set.(*workingSet)
	const bad = ^api.KvPage(0)
	entries := ws.entries[:cap(ws.entries)]
	for i := range entries {
		entries[i] = pageEntry{h: bad, owned: true, live: true}
	}
	for _, pages := range [][]api.KvPage{ws.attn, ws.outBuf, ws.grant} {
		pages = pages[:cap(pages)]
		for i := range pages {
			pages[i] = bad
		}
	}
	for _, embs := range [][]api.Embed{ws.inBuf, ws.outEmb} {
		embs = embs[:cap(embs)]
		for i := range embs {
			embs[i] = ^api.Embed(0)
		}
	}
	for _, ints := range [][]int{ws.pend, ws.posBuf, ws.tokBuf} {
		ints = ints[:cap(ints)]
		for i := range ints {
			ints[i] = -1
		}
	}
}
