package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// OwnershipHint is the machine-readable body of a 421 Misdirected
// Request: the node that refused the key names the partition's owner
// in the node's ring, so the proxy can forward once more without
// waiting for a pulse.
type OwnershipHint struct {
	Error     string `json:"error"`
	Partition int    `json:"partition"`
	Owner     string `json:"owner,omitempty"`
	OwnerAddr string `json:"owner_addr,omitempty"`
	RingEpoch uint64 `json:"ring_epoch,omitempty"`
}

// Client is a client-side ring router, used by amntload -cluster and
// bench/ladder: it holds the latest installed ring state, routes keys
// to owner addresses, and refreshes wholesale from any node's (or the
// proxy's) GET /v1/ring.
type Client struct {
	mu    sync.RWMutex
	state *State
}

// NewClient starts from initial, or from no state when initial is nil
// (every route fails until Install or Refresh succeeds).
func NewClient(initial *State) *Client {
	return &Client{state: initial.Clone()}
}

// Install adopts a newer ring state; older or same-epoch states are
// ignored. Returns whether the state was installed.
func (c *Client) Install(s *State) bool {
	if s == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != nil && s.Epoch <= c.state.Epoch {
		return false
	}
	c.state = s.Clone()
	return true
}

// Route returns the owner (id, addr) of a key's partition under the
// installed state.
func (c *Client) Route(key uint64) (string, string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.state == nil || c.state.Partitions <= 0 {
		return "", "", fmt.Errorf("cluster: no ring to route key %d", key)
	}
	part := int(key % uint64(c.state.Partitions))
	id := c.state.Owner(part)
	addr := c.state.Addr(id)
	if id == "" || addr == "" {
		return "", "", fmt.Errorf("cluster: partition %d unassigned", part)
	}
	return id, addr, nil
}

// Refresh fetches GET {addr}/v1/ring and installs the result if
// newer. Returns whether a newer state was installed.
func (c *Client) Refresh(ctx context.Context, httpc *http.Client, addr string) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/ring", nil)
	if err != nil {
		return false, err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("cluster: ring refresh from %s: %s", addr, resp.Status)
	}
	var s State
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return false, err
	}
	return c.Install(&s), nil
}
