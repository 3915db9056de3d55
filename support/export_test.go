package support

import "pie/api"

// AttentionPages exposes the cached attention-input page list to tests.
func (c *Context) AttentionPages() []api.KvPage { return c.ctxPages() }

// PinnedPages exposes the read-only prefix set by ComposeContext.
func (c *Context) PinnedPages() []api.KvPage { return c.pinned }
