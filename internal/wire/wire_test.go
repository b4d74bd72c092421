package wire

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"

	"amnt/internal/telemetry/span"
)

// The reference the fuzz targets decode against: the struct shapes
// the node, the proxy and amntload each used to declare, fed to
// encoding/json.
type refOp struct {
	Key      uint64 `json:"key"`
	ValueB64 string `json:"value_b64"`
	Error    string `json:"error"`
}

type refRequest struct {
	Puts []struct {
		Key      uint64 `json:"key"`
		ValueB64 string `json:"value_b64"`
	} `json:"puts"`
	Gets []uint64 `json:"gets"`
}

type refResponse struct {
	Puts   []refOp         `json:"puts"`
	Gets   []refOp         `json:"gets"`
	Timing json.RawMessage `json:"timing"`
}

var wireNames = []string{"puts", "gets", "key", "value_b64", "error", "timing"}

// departures walks a syntactically valid document and reports the two
// things wire documents it treats differently from encoding/json: an
// object name that is a case variant of a wire name (encoding/json
// would match it), and a repeated "puts" or "gets" (encoding/json
// would merge the arrays element by element).
func departures(data []byte) (folded, repeated bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var value func()
	value = func() {
		tok, err := dec.Token()
		if err != nil {
			return
		}
		switch tok {
		case json.Delim('{'):
			seen := map[string]bool{}
			for dec.More() {
				k, _ := dec.Token()
				name, _ := k.(string)
				if seen[name] && (name == "puts" || name == "gets") {
					repeated = true
				}
				seen[name] = true
				for _, w := range wireNames {
					if name != w && strings.EqualFold(name, w) {
						folded = true
					}
				}
				value()
			}
			_, _ = dec.Token()
		case json.Delim('['):
			for dec.More() {
				value()
			}
			_, _ = dec.Token()
		}
	}
	value()
	return folded, repeated
}

// sameValue checks one value_b64 against the reference: both sides
// fail to decode it, or both decode it to the same bytes.
func sameValue(t *testing.T, buf *Buf, what string, got []byte, ref string) {
	t.Helper()
	want, refErr := base64.StdEncoding.DecodeString(ref)
	v, err := buf.Value(got)
	if (refErr == nil) != (err == nil) {
		t.Fatalf("%s: base64 verdicts differ: encoding/json side %v, wire side %v", what, refErr, err)
	}
	if err == nil && !bytes.Equal(v, want) {
		t.Fatalf("%s: value %q, encoding/json gives %q", what, v, want)
	}
}

// verdict compares the two accept/reject decisions and reports
// whether the decoded contents are comparable too.
func verdict(t *testing.T, data []byte, refErr, err error) (compare bool) {
	t.Helper()
	if refErr != nil && err != nil {
		return false
	}
	folded, repeated := departures(data)
	if folded {
		return false
	}
	if (refErr == nil) != (err == nil) {
		t.Fatalf("accept/reject differs on %q: encoding/json %v, wire %v", data, refErr, err)
	}
	return !repeated
}

// The seed corpus of both targets is testdata/fuzz; only the seeds
// too long to keep as files are added here.
func FuzzDecodeBatchRequest(f *testing.F) {
	f.Add([]byte(strings.Repeat("[", 10001)))
	f.Add([]byte(`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`))
	f.Add([]byte(`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref refRequest
		var buf Buf
		refErr, err := json.Unmarshal(data, &ref), buf.Req.Decode(data)
		if !verdict(t, data, refErr, err) {
			return
		}
		got := &buf.Req
		if len(got.Puts) != len(ref.Puts) || len(got.Gets) != len(ref.Gets) {
			t.Fatalf("%q: %d puts %d gets, encoding/json gives %d and %d", data, len(got.Puts), len(got.Gets), len(ref.Puts), len(ref.Gets))
		}
		for i, p := range ref.Puts {
			if got.Puts[i].Key != p.Key || got.Puts[i].Err != "" {
				t.Fatalf("%q: put %d is %+v, encoding/json gives key %d", data, i, got.Puts[i], p.Key)
			}
			sameValue(t, &buf, "put", got.Puts[i].B64, p.ValueB64)
		}
		if len(ref.Gets) > 0 && !reflect.DeepEqual(got.Gets, ref.Gets) {
			t.Fatalf("%q: gets %v, encoding/json gives %v", data, got.Gets, ref.Gets)
		}
	})
}

func FuzzDecodeBatchResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref refResponse
		var buf Buf
		refErr, err := json.Unmarshal(data, &ref), buf.Resp.Decode(data)
		if !verdict(t, data, refErr, err) {
			return
		}
		got := &buf.Resp
		if string(ref.Timing) == "null" {
			ref.Timing = nil
		}
		if !bytes.Equal(got.Timing, ref.Timing) {
			t.Fatalf("%q: timing %q, encoding/json gives %q", data, got.Timing, ref.Timing)
		}
		for _, side := range []struct {
			name string
			got  []Op
			ref  []refOp
		}{{"put", got.Puts, ref.Puts}, {"get", got.Gets, ref.Gets}} {
			if len(side.got) != len(side.ref) {
				t.Fatalf("%q: %d %ss, encoding/json gives %d", data, len(side.got), side.name, len(side.ref))
			}
			for i, r := range side.ref {
				if side.got[i].Key != r.Key || side.got[i].Err != r.Error {
					t.Fatalf("%q: %s %d is %+v, encoding/json gives %+v", data, side.name, i, side.got[i], r)
				}
				sameValue(t, &buf, side.name, side.got[i].B64, r.ValueB64)
			}
		}
	})
}

// TestEncodeRoundTrip is the encoder's property: whatever the error
// strings, values and timing, the output is valid JSON that
// encoding/json and wire itself both read back as what went in —
// with invalid UTF-8 replaced exactly as encoding/json's own encoder
// would replace it.
func TestEncodeRoundTrip(t *testing.T) {
	check := func(key uint64, value []byte, msg, reqID string, us int64) bool {
		var viaJSON string
		quoted, _ := json.Marshal(msg)
		_ = json.Unmarshal(quoted, &viaJSON)
		tm := &span.Timing{RequestID: reqID, Op: "batch", Shard: -1, CommitClimbUs: us, ForwardUs: us, TotalUs: us}
		out := AppendResponse(nil, []Op{{Key: key, Err: msg}}, []Op{{Key: key, Value: value}, {Key: key, Err: msg}}, tm)
		if !json.Valid(out) || bytes.ContainsAny(out, " \n") && !strings.ContainsAny(msg+reqID, " \n") {
			t.Logf("not valid compact JSON: %q", out)
			return false
		}
		var ref refResponse
		var got Response
		if err := json.Unmarshal(out, &ref); err != nil {
			t.Logf("encoding/json rejects %q: %v", out, err)
			return false
		}
		if err := got.Decode(out); err != nil {
			t.Logf("wire rejects its own %q: %v", out, err)
			return false
		}
		var buf Buf
		back, err := buf.Value(got.Gets[0].B64)
		var gotTm, refTm, wantTm span.Timing
		quoted, _ = json.Marshal(tm)
		_ = json.Unmarshal(quoted, &wantTm)
		_ = json.Unmarshal(got.Timing, &gotTm)
		_ = json.Unmarshal(ref.Timing, &refTm)
		ok := err == nil && bytes.Equal(back, value) && ref.Gets[0].ValueB64 == base64.StdEncoding.EncodeToString(value) &&
			got.Puts[0].Err == viaJSON && got.Gets[1].Err == viaJSON && ref.Puts[0].Error == viaJSON &&
			got.Puts[0].Key == key && ref.Gets[1].Key == key &&
			gotTm == wantTm && refTm == wantTm
		if !ok {
			t.Logf("round trip of %q lost something: %q", msg, out)
		}
		return ok
	}
	for _, msg := range []string{"", `say "hi"\`, "tab\tnl\nnul\x00esc\x1b", "\xff\xc0 torn \xe2\x82", "日本語 😀  ", "</script>&"} {
		if !check(^uint64(0), []byte(msg), msg, msg, -3) {
			t.Fatalf("error string %q does not round-trip", msg)
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRequestAndKVRoundTrip covers the three smaller shapes: a
// request built from raw values or from spliced base64 text decodes
// to the same puts, and the kv bodies carry key, value and timing.
func TestRequestAndKVRoundTrip(t *testing.T) {
	var buf Buf
	body := AppendRequest(nil, []Op{{Key: 1, Value: []byte("alpha")}, {Key: 2, B64: []byte("YmV0YQ==")}, {Key: 3}}, []uint64{1, 2, 3})
	if want := `{"puts":[{"key":1,"value_b64":"YWxwaGE="},{"key":2,"value_b64":"YmV0YQ=="},{"key":3}],"gets":[1,2,3]}`; string(body) != want {
		t.Fatalf("request body %s, want %s", body, want)
	}
	if err := buf.Req.Decode(body); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"alpha", "beta", ""} {
		if v, err := buf.Value(buf.Req.Puts[i].B64); err != nil || string(v) != want {
			t.Fatalf("put %d decodes to %q, %v", i, v, err)
		}
	}
	if !reflect.DeepEqual(buf.Req.Gets, []uint64{1, 2, 3}) {
		t.Fatalf("gets %v", buf.Req.Gets)
	}

	var kv KV
	tm := &span.Timing{RequestID: "r", TotalUs: 12}
	if err := kv.Decode(AppendGet(nil, 7, []byte("hello"), tm)); err != nil {
		t.Fatal(err)
	}
	if v, _ := buf.Value(kv.B64); kv.Key != 7 || string(v) != "hello" || !bytes.Contains(kv.Timing, []byte(`"total_us":12`)) {
		t.Fatalf("kv get decoded as %+v (%q)", kv, v)
	}
	if ack := AppendAck(nil, 7, nil); string(ack) != `{"ok":true,"key":7}` {
		t.Fatalf("ack body %s", ack)
	}
	if err := kv.Decode(AppendAck(nil, 9, tm)); err != nil || kv.Key != 9 || kv.B64 != nil || !bytes.Contains(kv.Timing, []byte(`"request_id":"r"`)) {
		t.Fatalf("kv ack decoded as %+v, %v", kv, err)
	}
	if err := kv.Decode(AppendAck(nil, 9, nil)); err != nil || kv.Timing != nil {
		t.Fatalf("unsampled ack decoded as %+v, %v", kv, err)
	}
}

// TestReadBody pins the body cap: a body of exactly the limit is
// read whole however the reader chunks it, one byte more is refused,
// and a reader's own error comes back.
func TestReadBody(t *testing.T) {
	var buf Buf
	data := bytes.Repeat([]byte("x"), 3000)
	if got, err := buf.ReadBody(iotest.OneByteReader(bytes.NewReader(data)), len(data)); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read %d bytes, %v", len(got), err)
	}
	if _, err := buf.ReadBody(bytes.NewReader(data), len(data)-1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over-limit body: %v, want ErrTooLarge", err)
	}
	boom := errors.New("boom")
	if _, err := buf.ReadBody(iotest.ErrReader(boom), 10); !errors.Is(err, boom) {
		t.Fatalf("reader error: %v", err)
	}
}

// TestDecodeAllocs keeps the decode and encode of a full batch off
// the heap once a Buf is warm.
func TestDecodeAllocs(t *testing.T) {
	var puts []Op
	var gets []uint64
	for k := uint64(0); k < 64; k++ {
		puts = append(puts, Op{Key: k, Value: bytes.Repeat([]byte{byte(k)}, 24)})
		gets = append(gets, k)
	}
	body := AppendRequest(nil, puts, gets)
	var buf Buf
	allocs := testing.AllocsPerRun(100, func() {
		if err := buf.Req.Decode(body); err != nil {
			t.Fatal(err)
		}
		buf.slab = buf.slab[:0]
		buf.Resp.Puts, buf.Resp.Gets = buf.Resp.Puts[:0], buf.Resp.Gets[:0]
		for _, p := range buf.Req.Puts {
			v, err := buf.Value(p.B64)
			if err != nil {
				t.Fatal(err)
			}
			buf.Resp.Puts = append(buf.Resp.Puts, Op{Key: p.Key})
			buf.Resp.Gets = append(buf.Resp.Gets, Op{Key: p.Key, Value: v})
		}
		buf.Out = AppendResponse(buf.Out[:0], buf.Resp.Puts, buf.Resp.Gets, nil)
	})
	if allocs > 0 {
		t.Fatalf("%v allocations per warm decode+encode of a 128-op batch, want 0", allocs)
	}
}
