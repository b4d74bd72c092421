package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// OwnershipHint is the machine-readable body of a 421 Misdirected
// Request: the node that refused the key tells the router who owns
// the partition now, so a stale ring self-corrects on the very next
// attempt instead of waiting for a full refresh.
type OwnershipHint struct {
	Error     string `json:"error"`
	Partition int    `json:"partition"`
	Owner     string `json:"owner,omitempty"`
	OwnerAddr string `json:"owner_addr,omitempty"`
	RingEpoch uint64 `json:"ring_epoch,omitempty"`
}

// Client is the ring-aware routing side shared by amntproxy and
// amntload -cluster: it holds the latest installed ring state,
// routes keys to owner addresses, applies 421 ownership hints as
// single-partition patches, and refreshes wholesale from any node's
// GET /v1/ring.
type Client struct {
	mu    sync.RWMutex
	state *State
	// patches overlays single-partition corrections learned from 421
	// hints at the state's epoch; a newer installed state clears it.
	patches map[int]Member
}

// NewClient starts from a deterministic boot state (InitialState
// over the configured member list).
func NewClient(initial *State) *Client {
	return &Client{state: initial.Clone(), patches: map[int]Member{}}
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
	c.patches = map[int]Member{}
	return true
}

// Partitions returns the installed partition count.
func (c *Client) Partitions() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.state == nil {
		return 0
	}
	return c.state.Partitions
}

// Partition maps a key to its partition id under the installed
// state.
func (c *Client) Partition(key uint64) int {
	p := c.Partitions()
	if p <= 0 {
		return 0
	}
	return int(key % uint64(p))
}

// Route returns the owner (id, addr) for a key's partition.
func (c *Client) Route(key uint64) (string, string, error) {
	return c.RoutePartition(c.Partition(key))
}

// RoutePartition returns the owner (id, addr) for a partition,
// preferring a 421-learned patch over the installed assignment.
func (c *Client) RoutePartition(part int) (string, string, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if m, ok := c.patches[part]; ok {
		return m.ID, m.Addr, nil
	}
	if c.state == nil || part < 0 || part >= len(c.state.Assign) {
		return "", "", fmt.Errorf("cluster: no route for partition %d", part)
	}
	id := c.state.Assign[part]
	addr := c.state.Addr(id)
	if id == "" || addr == "" {
		return "", "", fmt.Errorf("cluster: partition %d unassigned", part)
	}
	return id, addr, nil
}

// Hint applies one 421 ownership hint. A hint carrying a newer ring
// epoch than the installed state still only patches its own
// partition — the next Refresh or pulse installs the full state —
// but a hint older than the installed epoch is dropped.
func (c *Client) Hint(h OwnershipHint) {
	if h.Owner == "" || h.OwnerAddr == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state != nil && h.RingEpoch > 0 && h.RingEpoch < c.state.Epoch {
		return
	}
	c.patches[h.Partition] = Member{ID: h.Owner, Addr: h.OwnerAddr}
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
