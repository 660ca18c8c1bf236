package cluster

// FuzzWireDecode hammers the fleet wire protocol's decode path with
// adversarial bytes: every inbound body the coordinator or a worker parses
// must decode or error cleanly — never panic — with allocation bounded by
// maxWireBody, and whatever survives decoding must flow through the
// gather-side validation (sweep.Subjob.Matches) without blowing up.

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"prioritystar/internal/sweep"
)

func FuzzWireDecode(f *testing.F) {
	// Valid documents for every wire shape, so mutations start near the
	// interesting surface.
	f.Add([]byte(`{"name":"w0","addr":"127.0.0.1:9","slots":2}`))
	f.Add([]byte(`{"id":"w0001","depth":3}`))
	f.Add([]byte(`{"fingerprint":"abc","spec":{"id":"x"},"key":"s0r0@1.2.3","subjob":{"s":0,"r":1,"reps":[0,1],"seeds":[7,9]}}`))
	f.Add([]byte(`{"records":[{"s":0,"r":1,"rep":0,"rcp":1.5,"bc":2,"uni":3,"hw":4,"lw":5,"au":0.5,"mdu":0.9,"du":[0.1,0.2]}],"cached":true}`))
	f.Add([]byte(`{"workers":[{"id":"w1","addr":"a:1","breaker":"open","breakerFails":2,"latencyEwmaMillis":12.5}]}`))
	// A truncated sub-job response — the exact shape a torn TCP stream or
	// chaosnet Truncate fault produces.
	f.Add([]byte(`{"records":[{"s":0,"r":1,"rep":0,"rc`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte("\x00\xff\xfe garbage"))

	ref := sweep.Subjob{Scheme: 0, Rho: 1, Reps: []int{0, 1}, Seeds: []uint64{7, 9}}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, dst := range []any{
			new(JoinRequest), new(HeartbeatRequest), new(SubjobRequest),
			new(SubjobResponse), new(WorkersResponse),
		} {
			r := httptest.NewRequest("POST", "/v1/cluster/subjob", bytes.NewReader(data))
			if err := decodeBody(r, dst); err != nil {
				continue
			}
			// Re-encoding whatever decoded must round-trip without panicking
			// (the coordinator journals and forwards these shapes).
			if _, err := json.Marshal(dst); err != nil {
				t.Fatalf("decoded value does not re-encode: %v", err)
			}
		}
		// Adversarial record sets through the fold validation: any mismatch
		// must be reported, never folded or panicked on.
		var resp SubjobResponse
		if json.Unmarshal(data, &resp) == nil {
			ref.Matches(resp.Records)
		}
	})
}

// TestWireDecodeBounded pins the allocation bound: a body longer than
// maxWireBody decodes only its prefix, so a hostile Content-Length or an
// endless stream cannot balloon coordinator memory.
func TestWireDecodeBounded(t *testing.T) {
	// An endless stream of JSON that never terminates the document.
	r := httptest.NewRequest("POST", "/", &endlessBody{})
	var resp SubjobResponse
	if err := decodeBody(r, &resp); err == nil {
		t.Fatal("decodeBody accepted an unbounded body")
	}
}

// endlessBody yields valid-looking JSON forever.
type endlessBody struct{ n int64 }

func (e *endlessBody) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	if e.n == 0 && len(p) > 0 {
		p[0] = '['
	}
	e.n += int64(len(p))
	return len(p), nil
}
