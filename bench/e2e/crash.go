package e2e

import (
	"bytes"
	"encoding/json"
	"net/http"
	"time"

	"amnt/bench/gen"
)

// crashLoop is crash-recover's scripted cycle, repeated until the
// limit (whose operation count is in cycles here):
//
//  1. one acknowledged 128-put batch over uniformly drawn keys;
//  2. POST /v1/recover — every shard is power-cycled, so anything the
//     server had not made durable is gone;
//  3. one GET of a just-written key, at once, while the rebuild runs;
//  4. POST /v1/flush — a control-op barrier that returns only after
//     rebuild and audit have finished;
//  5. read back the 128 just-acknowledged keys and 128 uniformly drawn
//     preloaded keys and compare each with the model.
//
// A put that was acknowledged and is not read back at its
// acknowledged version is a lost write and fails the run.
func (c *client) crashLoop(l limit) {
	ops := make([]gen.Op, 128)
	for cycles := uint64(0); !l.reached(cycles); cycles++ {
		for i := range ops {
			ops[i] = gen.Op{Key: c.stream.Uniform(), Put: true}
		}
		c.batchOps(ops)

		t0 := time.Now()
		c.control("/v1/recover")
		c.tolerateRecovering = true
		c.getOne(ops[0].Key)
		c.barrier()
		c.tolerateRecovering = false
		c.recover = append(c.recover, int64(time.Since(t0)))
		c.cycles++

		for i := range ops {
			ops[i].Put = false
		}
		c.batchOps(ops)
		for i := range ops {
			ops[i] = gen.Op{Key: c.stream.Uniform()}
		}
		c.batchOps(ops)
	}
}

// barrier is step 4: POST /v1/flush, which returns once rebuild and
// audit are done. If the flush itself is refused as recovering (see
// client.tolerateRecovering), the refusal says the rebuild is over and
// the audit is running, and the barrier waits for /v1/health to
// report "ok" instead.
func (c *client) barrier() {
	c.Attempted++
	status, body, _, err := c.do(http.MethodPost, c.base+"/v1/flush", nil, "")
	if err != nil || status != http.StatusOK {
		if !c.refusedRecovering(status, body) {
			c.fail(1, "POST /v1/flush: status %d err %v body %.200s", status, err, body)
			return
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			status, body, _, err := c.do(http.MethodGet, c.base+"/v1/health", nil, "")
			var h struct {
				Status string `json:"status"`
			}
			if err == nil && status == http.StatusOK && json.Unmarshal(body, &h) == nil && h.Status == "ok" {
				return
			}
			if time.Now().After(deadline) {
				c.fail(1, "POST /v1/flush refused as recovering and /v1/health not ok within 5 s")
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// refusedRecovering reports whether a non-200 answer is the server's
// 503 {"reason":"recovering"} inside crash-recover's crash window, and
// if so counts it as a refusal instead of a failed operation.
func (c *client) refusedRecovering(status int, body []byte) bool {
	if !c.tolerateRecovering || status != http.StatusServiceUnavailable || !bytes.Contains(body, []byte(`"recovering"`)) {
		return false
	}
	c.refusals++
	c.Attempted-- // neither attempted nor failed: reported on its own
	return true
}
