package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"qurator/internal/mstore"
	"qurator/internal/provenance"
)

// spaces is an endless run of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestClusterBodiesBounded: every /cluster POST reads at most its limit.
// A body that is valid apart from its size is refused with a 4xx, the
// same body under the limit is accepted, and a journal entry without a
// key is the client's fault (400), not the server's.
func TestClusterBodiesBounded(t *testing.T) {
	n, err := NewNode(Config{Self: NodeInfo{ID: "n1", Addr: "http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	post := func(path string, body io.Reader) int {
		rec := httptest.NewRecorder()
		n.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		return rec.Code
	}
	// One body serves all three endpoints: unknown members are ignored.
	const entry = `{"id":"n2","addr":"http://127.0.0.1:2","key":"4bf9","result":{}}`
	padded := func(pad int64) io.Reader {
		return io.MultiReader(io.LimitReader(spaces{}, pad), strings.NewReader(entry))
	}
	for _, c := range []struct {
		path  string
		limit int64
	}{
		{"/cluster/join", maxMemberBody},
		{"/cluster/leave", maxMemberBody},
		{"/cluster/journal", maxJournalBody},
	} {
		if code := post(c.path, padded(1024)); code != http.StatusOK {
			t.Errorf("POST %s under the limit: %d, want 200", c.path, code)
		}
		if code := post(c.path, padded(c.limit)); code < 400 || code > 499 {
			t.Errorf("POST %s over the %d-byte limit: %d, want 4xx", c.path, c.limit, code)
		}
	}
	if code := post("/cluster/journal", strings.NewReader(`{"result":{}}`)); code != http.StatusBadRequest {
		t.Errorf("journal entry without key: %d, want 400", code)
	}
	if got := n.Journal().Len(); got != 1 {
		t.Errorf("journal holds %d entries, want only the accepted one", got)
	}
}

// TestJournalRefusesKeysOutsideHexAlphabet: a journal key or supersedes
// link becomes an IRI in the provenance graph, so one holding "> <" would
// be written to the WAL in a form its recovery rejects, and the node could
// not restart. Such an entry is answered 400 and the durable log reopens
// with only the valid entry.
func TestJournalRefusesKeysOutsideHexAlphabet(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "prov")
	log := provenance.NewLog()
	if err := log.Persist(dir, mstore.Options{}); err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Config{Self: NodeInfo{ID: "n1", Addr: "http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	n.AttachJournal(NewJournal(log))
	for body, want := range map[string]int{
		`{"key":"a> <b","result":{"view":"v"}}`:                   http.StatusBadRequest,
		`{"key":"4BF9","result":{"view":"v"}}`:                    http.StatusBadRequest,
		`{"key":"4bf9","result":{"view":"v","supersedes":"a b"}}`: http.StatusBadRequest,
		`{"key":"4bf9","result":{"view":"v","supersedes":"0a"}}`:  http.StatusOK,
	} {
		rec := httptest.NewRecorder()
		n.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/cluster/journal", strings.NewReader(body)))
		if rec.Code != want {
			t.Errorf("POST %s: %d, want %d", body, rec.Code, want)
		}
	}
	if err := log.CloseStore(); err != nil {
		t.Fatal(err)
	}
	log2 := provenance.NewLog()
	if err := log2.Persist(dir, mstore.Options{}); err != nil {
		t.Fatalf("durable journal does not reopen: %v", err)
	}
	defer log2.CloseStore()
	if got := NewJournal(log2).Len(); got != 1 {
		t.Errorf("reopened journal holds %d entries, want 1", got)
	}
}
