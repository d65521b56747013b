package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
)

// FuzzMapRequest feeds arbitrary bodies to the one-pass request decode. It
// must never panic; every body it accepts must keep its cache key across a
// re-encode and second decode; and every body it rejects must be answered
// by the handler with a 400 or 413, never a 5xx.
func FuzzMapRequest(f *testing.F) {
	// The design-parser error cases, wrapped as requests.
	for _, design := range []string{
		`{`,
		`{"name":"x","use_cases":[{"name":"u","flows":[]}]}`,
		`{"name":"x","num_cores":2,"bogus":1,"use_cases":[{"name":"u","flows":[]}]}`,
		`{"name":"x","num_cores":2,"use_cases":[{"name":"u","flows":[{"src":0,"dst":5,"bandwidth_mbs":5}]}]}`,
		`{"name":"huge","num_cores":999999999,"use_cases":[{"name":"u","flows":[{"src":0,"dst":1,"bandwidth_mbs":1}]}]}`,
	} {
		f.Add([]byte(`{"design":` + design + `}`))
	}
	small := `{"name":"d","num_cores":3,"use_cases":[` +
		`{"name":"a","flows":[{"src":0,"dst":1,"bandwidth_mbs":10},{"src":1,"dst":2,"bandwidth_mbs":5,"max_latency_ns":900}]},` +
		`{"name":"b","flows":[{"src":2,"dst":0,"bandwidth_mbs":7}]}],"parallel_sets":[[0,1]],"smooth_pairs":[[1,0]]}`
	f.Add([]byte(`{"design":` + small + `,"engine":"anneal","seed":3,"iters":50,"topology":"torus"}`))
	f.Add([]byte(`{"design":` + small + `,"engine":"greedy","iter":300}`))
	f.Add([]byte(`{"design":` + small + `,"budget":"soon"}`))
	f.Add([]byte(`{"design":null,"engine":"greedy"}`))
	f.Add([]byte(`{"engine":"quantum"}`))
	if raw, err := os.ReadFile("../../examples/designs/d1.json"); err == nil {
		f.Add([]byte(`{"design":` + string(raw) + `,"engine":"greedy","freq_mhz":400}`))
	}

	s := New(Config{Workers: 1})
	f.Cleanup(s.Close)
	h := NewHandler(s)
	decode := func(body []byte, mr *MapRequest) bool {
		req := httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(body))
		return decodeBody(httptest.NewRecorder(), req, mr)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var mr MapRequest
		var key string
		accepted := decode(body, &mr)
		if accepted {
			req, err := mr.ToRequest()
			if err == nil {
				key, err = req.Key()
			}
			accepted = err == nil
		}
		if !accepted {
			// Rejected before admission: the handler must answer with a
			// client error, and never reach the engine.
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(body)))
			if rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("rejected body answered HTTP %d: %s (input %q)", rec.Code, rec.Body.Bytes(), body)
			}
			return
		}

		again, err := json.Marshal(&mr)
		if err != nil {
			t.Fatalf("accepted request fails to re-encode: %v (input %q)", err, body)
		}
		var mr2 MapRequest
		if !decode(again, &mr2) {
			t.Fatalf("re-encoded request rejected (re-encoded %s)", again)
		}
		req2, err := mr2.ToRequest()
		if err != nil {
			t.Fatalf("re-encoded request invalid: %v (re-encoded %s)", err, again)
		}
		if key2, err := req2.Key(); err != nil || key2 != key {
			t.Fatalf("key changed over re-encoding: %s vs %s (%v; input %q)", key2, key, err, body)
		}
	})
}
