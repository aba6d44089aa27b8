package wire

// Accessors only this package's tests want.

// Poisoned reports whether an earlier transport error made this client
// refuse further use of its connection.
func (c *Client) Poisoned() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.poisoned != nil
}

// Target returns the address a resilient client's next dial goes to: the
// first configured address until a redirect or seed rotation moves it.
func (c *Client) Target() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retry.target
}
