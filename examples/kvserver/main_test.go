package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"incll"
)

// TestConcurrentWrites sends bursts of PUTs and DELETEs on disjoint keys
// from concurrent goroutines, as net/http does for concurrent clients, and
// then reads every key back. A store handle is single-writer, so writes
// that shared one would corrupt the tree or spin forever on a node lock.
func TestConcurrentWrites(t *testing.T) {
	const (
		clients = 4
		keys    = 300
	)
	db, _ := incll.Open(incll.Options{ArenaWords: 1 << 22, Shards: 2, Workers: clients})
	defer db.Close()
	srv := newServer(clients)
	srv.db = db
	do := func(method, target string) (int, string) {
		rec := httptest.NewRecorder()
		srv.kv(rec, httptest.NewRequest(method, target, nil))
		return rec.Code, rec.Body.String()
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < keys; i++ {
					if code, body := do(http.MethodPut, fmt.Sprintf("/kv/c%d-k%04d?v=%d", c, i, c*keys+i)); code != http.StatusOK {
						t.Errorf("client %d PUT %d: %d %s", c, i, code, body)
						return
					}
					if i%3 == 0 {
						if code, body := do(http.MethodDelete, fmt.Sprintf("/kv/c%d-k%04d", c, i)); code != http.StatusOK || !strings.Contains(body, "deleted=true") {
							t.Errorf("client %d DELETE %d: %d %s", c, i, code, body)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("concurrent writes did not finish within 60 s")
	}

	for c := 0; c < clients; c++ {
		for i := 0; i < keys; i++ {
			code, body := do(http.MethodGet, fmt.Sprintf("/kv/c%d-k%04d", c, i))
			if i%3 == 0 {
				if code != http.StatusNotFound {
					t.Fatalf("deleted key c%d-k%04d: %d %s", c, i, code, body)
				}
				continue
			}
			if want := fmt.Sprintf("%d\n", c*keys+i); code != http.StatusOK || body != want {
				t.Fatalf("key c%d-k%04d: %d %q, want %q", c, i, code, body, want)
			}
		}
	}
}

// TestStoreOptionsFitManyWorkers opens a store with the server's sizing at
// a worker count well above common core counts: every worker's log and
// intent segments must fit its shard's arena beside the heap.
func TestStoreOptionsFitManyWorkers(t *testing.T) {
	for _, shards := range []int{1, 4} {
		o := storeOptions(shards, 64)
		db, _ := incll.Open(o)
		db.Close()
		if o.HeapWords != (1<<24)/uint64(shards) {
			t.Fatalf("%d shard(s): heap %d words, want %d", shards, o.HeapWords, (1<<24)/uint64(shards))
		}
	}
}
