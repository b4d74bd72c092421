package gen

import (
	"encoding/base64"
	"strconv"
)

// Batch builds the JSON body of one POST /v1/batch:
//
//	{"puts":[{"key":K,"value_b64":"…"},…],"gets":[K,…]}
//
// The end-to-end client and the in-process node probe both send
// bodies built here, so the handler rung parses what the real server
// parses. A Batch is reused across requests with Reset.
type Batch struct {
	puts, gets, body []byte
	PutKeys, GetKeys []uint64
}

// Reset empties the batch, keeping its buffers.
func (b *Batch) Reset() {
	b.puts, b.gets = b.puts[:0], b.gets[:0]
	b.PutKeys, b.GetKeys = b.PutKeys[:0], b.GetKeys[:0]
}

// Put adds a put of key at version.
func (b *Batch) Put(key, version uint64) {
	var stamp [ValueLen]byte
	var enc [ValueLen / 3 * 4]byte
	base64.StdEncoding.Encode(enc[:], AppendValue(stamp[:0], key, version))
	if len(b.PutKeys) > 0 {
		b.puts = append(b.puts, ',')
	}
	b.puts = append(b.puts, `{"key":`...)
	b.puts = strconv.AppendUint(b.puts, key, 10)
	b.puts = append(b.puts, `,"value_b64":"`...)
	b.puts = append(b.puts, enc[:]...)
	b.puts = append(b.puts, `"}`...)
	b.PutKeys = append(b.PutKeys, key)
}

// Get adds a get of key.
func (b *Batch) Get(key uint64) {
	if len(b.GetKeys) > 0 {
		b.gets = append(b.gets, ',')
	}
	b.gets = strconv.AppendUint(b.gets, key, 10)
	b.GetKeys = append(b.GetKeys, key)
}

// Len is the number of key operations in the batch.
func (b *Batch) Len() int { return len(b.PutKeys) + len(b.GetKeys) }

// Body returns the request body; it is valid until the next Reset.
func (b *Batch) Body() []byte {
	b.body = append(b.body[:0], `{"puts":[`...)
	b.body = append(b.body, b.puts...)
	b.body = append(b.body, `],"gets":[`...)
	b.body = append(b.body, b.gets...)
	b.body = append(b.body, `]}`...)
	return b.body
}
