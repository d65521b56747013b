package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"nocmap/internal/bench"
	"nocmap/internal/traffic"
)

// stdlibDecodeBody is the request decode the byte-level decoder must
// reproduce: one strict encoding/json pass over the bounded body, with the
// same 413/400 replies as decodeBody.
func stdlibDecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds the %d-byte limit", tooBig.Limit))
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
	}
	return false
}

// decodeMapRequest reads body and decodes it into mr, which must be zero,
// through a pooled decoder, as the POST /v1/map handler does.
func decodeMapRequest(body io.Reader, mr *MapRequest) error {
	d := bodyPool.Get().(*bodyDecoder)
	defer d.release()
	return d.decodeRequest(d.read(body), mr)
}

// decodeBody is the handler's decode of a POST /v1/map body bounded by
// maxBodyBytes: on failure it writes the handler's 413 or 400 reply and
// returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, mr *MapRequest) bool {
	if err := decodeMapRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes), mr); err != nil {
		writeDecodeError(w, err)
		return false
	}
	return true
}

// fastDecode runs the fast path alone on body.
func fastDecode(body []byte, mr *MapRequest) bool {
	var d bodyDecoder
	return d.decode(body, mr)
}

// perfbenchBody builds a request the way the benchmark's workloads build
// theirs: core names and each use-case encoded by encoding/json, spliced
// into a design object, followed by the workload's engine suffix.
func perfbenchBody(t testing.TB, d *traffic.Design, name, suffix string) []byte {
	t.Helper()
	j := d.JSON()
	cores, err := json.Marshal(j.CoreNames)
	if err != nil {
		t.Fatal(err)
	}
	b := []byte(`{"design":{"name":` + strconv.Quote(name) + `,"core_names":` + string(cores) + `,"use_cases":[`)
	for i, u := range j.UseCases {
		frag, err := json.Marshal(u)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, frag...)
	}
	return append(append(b, "]},"...), suffix...)
}

const (
	greedySuffix = `"engine":"greedy"}`
	streamSuffix = `"engine":"anneal","iters":300,"mode":"stream"}`
)

// fastPathBodies returns the requests the fast path must own: D1-D4 as
// interchange requests and one body of each benchmark workload.
func fastPathBodies(t testing.TB) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for name, gen := range map[string]func() (*traffic.Design, error){
		"D1": bench.D1, "D2": bench.D2, "D3": bench.D3, "D4": bench.D4,
	} {
		d, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		seed, slots := int64(3), 32
		body, err := json.Marshal(MapRequest{Design: d.JSON(), Engine: "anneal", Seed: &seed, Slots: &slots})
		if err != nil {
			t.Fatal(err)
		}
		out[name] = body
	}
	raw, err := os.ReadFile("../../examples/designs/d1.json")
	if err != nil {
		t.Fatal(err)
	}
	out["examples/designs/d1.json"] = []byte(`{"design":` + string(raw) + `,"engine":"greedy","freq_mhz":400}`)
	d4, err := bench.D4()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := bench.Synthetic(bench.Spread.SpecFor(20, 1000))
	if err != nil {
		t.Fatal(err)
	}
	bot, err := bench.Synthetic(bench.Bottleneck.SpecFor(20, 1001))
	if err != nil {
		t.Fatal(err)
	}
	out["cold-greedy"] = perfbenchBody(t, sp, "cold-17", greedySuffix)
	out["hot-hits"] = perfbenchBody(t, d4, "hot-3", greedySuffix)
	out["stream-anneal"] = perfbenchBody(t, bot, "stream-5", streamSuffix)
	return out
}

// TestDecodeFastPath asserts that the byte-level decoder, not its fallback,
// handles the shipped designs and the benchmark's request shapes, and that
// it decodes each to the value and cache key encoding/json gives.
func TestDecodeFastPath(t *testing.T) {
	for name, body := range fastPathBodies(t) {
		var fast, std MapRequest
		if !fastDecode(body, &fast) {
			t.Errorf("%s: the fast path handed the body to the fallback", name)
			continue
		}
		if err := decodeStrict(bytes.NewReader(body), &std); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(fast, std) {
			t.Errorf("%s: fast decode differs from encoding/json", name)
		}
		fr, err := fast.ToRequest()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sr, _ := std.ToRequest()
		fk, err := fr.Key()
		if err != nil {
			t.Fatal(err)
		}
		if sk, _ := sr.Key(); fk != sk {
			t.Errorf("%s: key %s, encoding/json's %s", name, fk, sk)
		}
	}
}

// TestDecodeMapRequestAllocs gates the steady-state allocations of the
// /v1/map body decode on D4: a constant plus one per decoded string and
// slice — the core names, and a name and a flow slice per use-case — and
// none for the pooled body or per flow. Skipped under
// NOCMAP_SKIP_ALLOC_GATE, coverage instrumentation and the race detector.
func TestDecodeMapRequestAllocs(t *testing.T) {
	if os.Getenv("NOCMAP_SKIP_ALLOC_GATE") != "" {
		t.Skip("NOCMAP_SKIP_ALLOC_GATE set")
	}
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates inside the measured path")
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled bodies at random")
	}
	body := fastPathBodies(t)["D4"]
	var r bytes.Reader
	var mr MapRequest
	decode := func() {
		r.Reset(body)
		mr = MapRequest{}
		if err := decodeMapRequest(&r, &mr); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	d := mr.Design
	limit := float64(8 + len(d.CoreNames) + 2*len(d.UseCases))
	if got := testing.AllocsPerRun(20, decode); got > limit {
		t.Errorf("D4 decode: %.0f allocs/op, want <= %.0f (%d cores, %d use-cases)", got, limit, len(d.CoreNames), len(d.UseCases))
	}
}

// errCut is the read error FuzzDecodeMapRequest injects into a body.
var errCut = errors.New("connection reset mid-body")

// FuzzDecodeMapRequest differentially checks the /v1/map body decode
// against the encoding/json decode it replaced. For every body — cut short
// by a read error after cut-1 bytes when cut is non-zero — both must give
// the same verdict, deeply equal values when they accept, and the same
// status and error text when they reject.
func FuzzDecodeMapRequest(f *testing.F) {
	d1, err := bench.D1()
	if err != nil {
		f.Fatal(err)
	}
	bot, err := bench.Synthetic(bench.Bottleneck.SpecFor(4, 1001))
	if err != nil {
		f.Fatal(err)
	}
	small := `{"name":"d","num_cores":3,"use_cases":[` +
		`{"name":"a","flows":[{"src":0,"dst":1,"bandwidth_mbs":10},{"src":1,"dst":2,"bandwidth_mbs":5,"max_latency_ns":900}]},` +
		`{"name":"b","flows":[{"src":2,"dst":0,"bandwidth_mbs":7}]}],"parallel_sets":[[0,1]],"smooth_pairs":[[1,0]]}`
	full := `{"design":` + small + `,"engine":"anneal","topology":"torus","seed":-3,"seeds":2,"iters":50,` +
		`"population":8,"generations":4,"nodes":100,"freq_mhz":412.5,"slots":16,"max_dim":6,` +
		`"timeout_ms":9000,"async":false,"mode":"stream"}`
	for _, body := range []string{
		string(perfbenchBody(f, bot, "cold-1", greedySuffix)),
		string(perfbenchBody(f, d1, "stream-2", streamSuffix)),
		full,
		" \t\r\n" + full + " \n",
		`{}`,
		`{"design":{"name":"e","core_names":[],"use_cases":[{"name":"u","flows":[]}],"parallel_sets":[[]],"smooth_pairs":[]}}`,
		// Case-folded and Unicode-folded keys.
		`{"DESIGN":` + small + `}`,
		`{"design":` + strings.Replace(small, `"src"`, `"Src"`, 1) + `}`,
		`{"design":` + strings.Replace(small, `"src"`, `"ſrc"`, 1) + `}`,
		`{"design":` + small + `,"ſeed":4}`,
		`{"design":` + small + `,"` + "\u212a" + `ey":1}`, // Kelvin sign
		// Unknown and repeated keys.
		`{"design":` + small + `,"iter":300}`,
		`{"design":` + small + `,"engine":"anneal","engine":"greedy"}`,
		`{"design":` + strings.Replace(small, `"src":0`, `"src":0,"src":2`, 1) + `}`,
		`{"design":` + small + `,"design":` + small + `}`,
		// Escapes, control and non-ASCII bytes in strings.
		`{"design":` + strings.Replace(small, `"name":"a"`, `"name":"a\"b"`, 1) + `}`,
		`{"design":` + small + `,"engine":"gr\u0065edy"}`,
		`{"design":` + small + `,"engine":"gr` + "\x01" + `eedy"}`,
		`{"design":` + strings.Replace(small, `"name":"d"`, `"name":"dé"`, 1) + `}`,
		`{"design":` + small + `,"engine":"gr` + "\xff" + `"}`,
		// Nulls.
		`{"design":null,"engine":"greedy"}`,
		`{"design":` + small + `,"seed":null}`,
		`{"design":` + strings.Replace(small, `"flows":[{"src":2,"dst":0,"bandwidth_mbs":7}]`, `"flows":null`, 1) + `}`,
		`null`,
		// Numbers outside the int and float grammars or ranges.
		`{"design":` + strings.Replace(small, `"src":0`, `"src":1e3`, 1) + `}`,
		`{"design":` + small + `,"seeds":1.0}`,
		`{"design":` + small + `,"seed":99999999999999999999}`,
		`{"design":` + small + `,"seed":-0}`,
		`{"design":` + strings.Replace(small, `"bandwidth_mbs":10`, `"bandwidth_mbs":1e400`, 1) + `}`,
		`{"design":` + strings.Replace(small, `"bandwidth_mbs":10`, `"bandwidth_mbs":01`, 1) + `}`,
		`{"design":` + strings.Replace(small, `"bandwidth_mbs":10`, `"bandwidth_mbs":-1.5E-3`, 1) + `}`,
		`{"design":` + strings.Replace(small, `"bandwidth_mbs":10`, `"bandwidth_mbs":"10"`, 1) + `}`,
		// Smooth pairs that are not exactly two elements.
		`{"design":` + strings.Replace(small, `[[1,0]]`, `[[1,0,2]]`, 1) + `}`,
		`{"design":` + strings.Replace(small, `[[1,0]]`, `[[1]]`, 1) + `}`,
		// Grammar errors, trailing bytes and empty bodies.
		`{"design":` + small + `,}`,
		`{"design":` + small + `,"async":tru}`,
		`{"design":` + small + `}garbage`,
		`{"design":` + small + `}{`,
		`{"design":` + small,
		`[]`,
		``,
		"   ",
	} {
		f.Add([]byte(body), uint16(0))
	}
	f.Add([]byte(full), uint16(40))
	f.Add([]byte(full+"tail"), uint16(len(full)+2))

	f.Fuzz(func(t *testing.T, body []byte, cut uint16) {
		reader := func() io.Reader {
			if n := int(cut) - 1; n >= 0 && n < len(body) {
				return io.MultiReader(bytes.NewReader(body[:n]), errReader{errCut})
			}
			return bytes.NewReader(body)
		}
		var want, got MapRequest
		wantRec, gotRec := httptest.NewRecorder(), httptest.NewRecorder()
		wantOK := stdlibDecodeBody(wantRec, httptest.NewRequest(http.MethodPost, "/v1/map", reader()), &want)
		gotOK := decodeBody(gotRec, httptest.NewRequest(http.MethodPost, "/v1/map", reader()), &got)
		switch {
		case gotOK != wantOK:
			t.Fatalf("verdict %t, encoding/json's %t (reply %d %s; input %q, cut %d)",
				gotOK, wantOK, wantRec.Code, wantRec.Body.Bytes(), body, cut)
		case wantOK && !reflect.DeepEqual(got, want):
			g, _ := json.Marshal(&got)
			w, _ := json.Marshal(&want)
			t.Fatalf("decoded\n%s\nencoding/json decoded\n%s\n(input %q, cut %d)", g, w, body, cut)
		case !wantOK && (gotRec.Code != wantRec.Code || gotRec.Body.String() != wantRec.Body.String()):
			t.Fatalf("rejected with %d %s, encoding/json with %d %s (input %q, cut %d)",
				gotRec.Code, gotRec.Body.Bytes(), wantRec.Code, wantRec.Body.Bytes(), body, cut)
		}
	})
}
