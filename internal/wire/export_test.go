package wire

// Accessors only this package's tests want.

// Poisoned reports whether an earlier transport error made this client
// refuse further use of its connection.
func (c *Client) Poisoned() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.poisoned != nil
}

// Target returns the address the next dial will go to: the configured
// address until a redirect or seed rotation moves it.
func (r *ResilientClient) Target() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.target
}
