// kvserver runs an HTTP key-value API over the durable Masstree, the
// "rapid restart" scenario the paper's introduction motivates: the store
// checkpoints every 64ms in the background, and because recovery is lazy,
// a restarted server answers its first request in milliseconds instead of
// rebuilding indexes from a disk image.
//
// With -shards N the keyspace is partitioned across N independent
// store+arena shards with coordinated cross-shard checkpoints: /crash then
// fails and recovers the whole cluster atomically, and /stats reports the
// per-shard traffic split next to the aggregate.
//
// With -serve-repl the node also serves the replication protocol to
// networked followers, and with -follow it runs as a read-only follower
// of another kvserver, converging over TCP and serving watermark-gated
// reads. Together they form a primary/follower cluster with manual
// failover (POST /promote on a follower, POST /follow to re-point).
//
//	go run ./examples/kvserver -addr :8080 -shards 4 -serve-repl :9090
//	go run ./examples/kvserver -addr :8081 -follow 127.0.0.1:9090
//
//	PUT  /kv/{key}?v=42     store a value (primary only; echoes X-Incll-Epoch)
//	GET  /kv/{key}          read a value (?minepoch=E gates on the watermark)
//	GET  /range?start=k&n=10  ordered range read
//	GET  /snapshot          stream a consistent online backup (see below)
//	GET  /digest            order+byte digest of the full keyspace (cluster equality checks)
//	POST /promote           follower only: become a standalone primary
//	POST /follow?addr=A     become (or re-point) a follower of A's replication port
//	POST /crash?persist=0.5 simulate a power failure + instant recovery
//	POST /reshard?shards=8  online split/merge to a new shard count
//	GET  /reshard           live reshard progress (phase, copy counters)
//	GET  /stats             logging and persistence counters, per shard
//	GET  /metrics           Prometheus text exposition (scrape me)
//	GET  /metrics/history   ring of recent metric snapshots + rates (JSON)
//	GET  /cluster           cluster health: role, peers, propagation latency (JSON)
//	GET  /healthz           liveness + role/lag; ?ready = readiness probe
//	GET  /trace             the phase trace: checkpoints, recoveries
//	GET  /debug/vars        expvar, including the typed metrics snapshot
//	GET  /debug/pprof/      Go profiling endpoints (with -pprof)
//
// /snapshot streams a consistent full backup of the live store —
// checksummed frames anchored at a committed epoch — without pausing
// writers (curl it while load runs; restore with incll.Restore or
// `incll-repl -mode restore`). -pprof exposes /debug/pprof/ (CPU and heap
// profiles, execution traces); -anomaly-stw / -anomaly-op / -anomaly-lag
// arm the flight recorder, which dumps trace+metrics+goroutines+cluster
// state to a directory when a checkpoint pause, the op tail latency, or a
// replication peer's lag breaches the threshold.
// SIGINT/SIGTERM shut down gracefully:
// in-flight requests drain, then the store closes with a final durable
// checkpoint, so the next start is a clean restart.
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"incll"
)

type server struct {
	mu        sync.RWMutex    // guards role/db swaps (crash, promote, follow)
	db        *incll.DB       // primary store; nil while following
	fol       *incll.Follower // non-nil while this node is a follower
	rs        *incll.ReplServer
	stopWatch func() // anomaly watchdog of the current role, nil when unarmed
	// workers lends each in-flight write a worker index of its own: a
	// worker's handle is single-writer, and net/http serves requests on
	// concurrent goroutines. Every store the node opens has that many
	// workers (Options.Workers).
	workers chan int
}

// newServer returns a server whose writes share n worker indices.
func newServer(n int) *server {
	s := &server{workers: make(chan int, n)}
	for i := 0; i < n; i++ {
		s.workers <- i
	}
	return s
}

// storeOptions sizes every store the node opens for the given shard and
// worker counts: each shard's heap is 2^24/shards words, and Open sizes
// the arena around it, each worker's log and intent segments included, so
// a machine with many cores does not run out at start-up.
func storeOptions(shards, workers int) incll.Options {
	return incll.Options{Shards: shards, Workers: workers, HeapWords: (1 << 24) / uint64(max(shards, 1))}
}

// write runs f on a worker handle of db that no other request holds,
// waiting for one to come free. A holder takes no further lock before it
// hands its worker back, so waiting here under the server's read lock
// cannot deadlock.
func (s *server) write(db *incll.DB, f func(h incll.Handle)) {
	w := <-s.workers
	defer func() { s.workers <- w }()
	f(db.Handle(w))
}

// startObs arms the node's observability for its current role: the
// metric recorder (backing /metrics/history) and, when thresholds were
// given, the anomaly watchdog, replacing the previous role's watchdog.
// Both belong to the node, so a follower's span its re-bootstraps. Called
// with s.mu held (or before serving) each time the node takes a role: at
// start and after /crash, /promote and /follow.
func (s *server) startObs(stw, op time.Duration, lag uint64) {
	if s.stopWatch != nil {
		s.stopWatch()
		s.stopWatch = nil
	}
	arm := func(db *incll.DB) {
		db.StartRecorder(time.Second, 600) // ten minutes of one-second points
		if stw <= 0 && op <= 0 && lag == 0 {
			return
		}
		s.stopWatch = db.StartWatchdog(incll.WatchdogConfig{
			STWThreshold:       stw,
			OpLatencyThreshold: op,
			LagThreshold:       lag,
			OnDump: func(dir, reason string) {
				log.Printf("anomaly (%s): flight record dumped to %s", reason, dir)
			},
		})
	}
	if s.fol != nil {
		s.fol.View(arm)
		return
	}
	arm(s.db)
}

// withDB runs f against the node's current store — the primary DB, or a
// follower's current bootstrap. The read lock pins the role for f's
// lifetime; on a follower, View additionally pins the current bootstrap
// generation so a mid-request reconnect cannot close the store under f.
func (s *server) withDB(f func(db *incll.DB)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.fol != nil {
		s.fol.View(f)
		return
	}
	f(s.db)
}

// follower returns the Follower while this node has that role.
func (s *server) follower() *incll.Follower {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.fol
}

// serveReplOn starts serving replication on addr (primary role).
func (s *server) serveReplOn(db *incll.DB, addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	rs, err := db.ServeReplication(lis, incll.ReplServerOptions{Logf: log.Printf})
	if err != nil {
		lis.Close()
		return err
	}
	s.rs = rs
	log.Printf("serving replication on %s", rs.Addr())
	return nil
}

// kv serves /kv/{key}: PUT and DELETE on the primary, GET on either role.
func (s *server) kv(w http.ResponseWriter, r *http.Request) {
	key := []byte(strings.TrimPrefix(r.URL.Path, "/kv/"))
	if len(key) == 0 {
		http.Error(w, "empty key", http.StatusBadRequest)
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	fol := s.fol
	db := s.db // nil while following; follower reads pin via View below
	switch r.Method {
	case http.MethodPut, http.MethodPost:
		if fol != nil {
			http.Error(w, "read-only follower; write to the primary", http.StatusConflict)
			return
		}
		v, err := strconv.ParseUint(r.URL.Query().Get("v"), 10, 64)
		if err != nil {
			http.Error(w, "bad value", http.StatusBadRequest)
			return
		}
		var inserted bool
		s.write(db, func(h incll.Handle) { inserted = h.Put(key, v) })
		// The commit epoch E: a follower whose applied watermark has
		// reached E is guaranteed to serve this write — pass it back
		// as ?minepoch=E for read-your-writes on any follower.
		w.Header().Set("X-Incll-Epoch", strconv.FormatUint(db.CurrentEpoch(), 10))
		fmt.Fprintf(w, "ok inserted=%v\n", inserted)
	case http.MethodGet:
		if me := r.URL.Query().Get("minepoch"); me != "" && fol != nil {
			need, err := strconv.ParseUint(me, 10, 64)
			if err != nil {
				http.Error(w, "bad minepoch", http.StatusBadRequest)
				return
			}
			if have := fol.AppliedEpoch(); need > have {
				// The watermark read rule: never serve a read the
				// follower has not yet caught up to — fail typed and
				// let the client retry (here or on another follower).
				w.Header().Set("X-Incll-Applied", strconv.FormatUint(have, 10))
				w.Header().Set("Retry-After", "1")
				http.Error(w, fmt.Sprintf("replica lagging: need epoch %d, applied %d", need, have),
					http.StatusServiceUnavailable)
				return
			}
		}
		if fol != nil {
			w.Header().Set("X-Incll-Applied", strconv.FormatUint(fol.AppliedEpoch(), 10))
		}
		read := func(db *incll.DB) {
			v, ok := db.Get(key)
			if !ok {
				http.NotFound(w, r)
				return
			}
			fmt.Fprintf(w, "%d\n", v)
		}
		if fol != nil {
			// View pins the current bootstrap generation: a reconnect
			// swapping the follower store mid-read cannot close it here.
			if fol.View(read) != nil {
				http.Error(w, "follower closed", http.StatusServiceUnavailable)
			}
			return
		}
		read(db)
	case http.MethodDelete:
		if fol != nil {
			http.Error(w, "read-only follower; write to the primary", http.StatusConflict)
			return
		}
		var deleted bool
		s.write(db, func(h incll.Handle) { deleted = h.Delete(key) })
		fmt.Fprintf(w, "deleted=%v\n", deleted)
	default:
		http.Error(w, "method", http.StatusMethodNotAllowed)
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	shards := flag.Int("shards", 1, "keyspace shards with coordinated checkpoints")
	pprofOn := flag.Bool("pprof", false, "expose Go profiling under /debug/pprof/")
	anomalySTW := flag.Duration("anomaly-stw", 0, "dump a flight record when a checkpoint pause exceeds this (0 = off)")
	anomalyOp := flag.Duration("anomaly-op", 0, "dump a flight record when windowed op p99 exceeds this (0 = off)")
	anomalyLag := flag.Uint64("anomaly-lag", 0, "dump a flight record when any replication peer lags more than this many epochs (0 = off)")
	serveRepl := flag.String("serve-repl", "", "serve the replication protocol to followers on this address (also used after /promote)")
	follow := flag.String("follow", "", "start as a follower of this primary replication address")
	replID := flag.String("repl-id", "", "follower identity on the primary (default: local address)")
	readyLag := flag.Uint64("ready-lag", 64, "readiness threshold: /healthz?ready fails when follower lag exceeds this many epochs")
	flag.Parse()

	workers := runtime.GOMAXPROCS(0)
	opts := storeOptions(*shards, workers)
	srv := newServer(workers)
	if *follow != "" {
		fol, err := incll.FollowPrimary(*follow, incll.FollowerOptions{
			Options: opts, ID: *replID, Logf: log.Printf,
		})
		if err != nil {
			log.Fatalf("follow %s: %v", *follow, err)
		}
		srv.fol = fol
		log.Printf("following %s: bootstrapped %d keys at epoch %d", *follow,
			fol.BootstrapInfo().Keys, fol.AppliedEpoch())
	} else {
		db, info := incll.Open(opts)
		db.StartCheckpointer()
		log.Printf("store opened (%v, %d shard(s)), checkpointing every 64ms", info.Status, db.Shards())
		srv.db = db
		if *serveRepl != "" {
			if err := srv.serveReplOn(db, *serveRepl); err != nil {
				log.Fatalf("serve-repl %s: %v", *serveRepl, err)
			}
		}
	}
	srv.startObs(*anomalySTW, *anomalyOp, *anomalyLag)

	mux := http.NewServeMux()
	mux.HandleFunc("/kv/", srv.kv)
	mux.HandleFunc("/range", func(w http.ResponseWriter, r *http.Request) {
		start := []byte(r.URL.Query().Get("start"))
		end := []byte(r.URL.Query().Get("end")) // exclusive; empty = open
		n, _ := strconv.Atoi(r.URL.Query().Get("n"))
		if n <= 0 {
			n = 10
		}
		reverse := r.URL.Query().Get("reverse") != ""
		srv.withDB(func(db *incll.DB) {
			o := incll.IterOptions{}
			if len(start) > 0 {
				o.LowerBound = start
			}
			if len(end) > 0 {
				o.UpperBound = end
			}
			it := db.NewIter(o)
			defer it.Close()
			emit := func() { fmt.Fprintf(w, "%s=%d\n", it.Key(), it.ValueUint64()) }
			if reverse {
				// Descending over the same [start, end) window.
				for ok, c := it.Last(), 0; ok && c < n; ok, c = it.Prev(), c+1 {
					emit()
				}
				return
			}
			for ok, c := it.First(), 0; ok && c < n; ok, c = it.Next(), c+1 {
				emit()
			}
		})
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", "attachment; filename=store.snap")
		srv.withDB(func(db *incll.DB) {
			info, err := db.Snapshot(w)
			if err != nil {
				// Headers are gone; all we can do is cut the stream so the
				// client's restore fails its checksum instead of trusting a
				// silent truncation.
				log.Printf("snapshot aborted: %v", err)
				return
			}
			log.Printf("snapshot streamed: %d keys, %d bytes, anchor epoch %d",
				info.Keys, info.Bytes, info.AnchorEpoch)
		})
	})
	mux.HandleFunc("/crash", func(w http.ResponseWriter, r *http.Request) {
		persist := 0.5
		if p := r.URL.Query().Get("persist"); p != "" {
			persist, _ = strconv.ParseFloat(p, 64)
		}
		// TryLock, not Lock: a long-running /snapshot download holds the
		// read lock, and a blocked writer would make every subsequent
		// request queue behind it — one slow client must not wedge the
		// whole server. The caller retries once the snapshot finishes.
		if !srv.mu.TryLock() {
			http.Error(w, "snapshot or crash in progress; retry", http.StatusServiceUnavailable)
			return
		}
		defer srv.mu.Unlock()
		if srv.fol != nil {
			http.Error(w, "follower: kill the process instead (the store is a replica)", http.StatusConflict)
			return
		}
		if srv.rs != nil {
			// A simulated crash kills the replication server with the DB;
			// the recovered instance serves it again on the same address.
			srv.rs = nil
		}
		t0 := time.Now()
		if srv.stopWatch != nil {
			srv.stopWatch() // bound to the dying db instance
			srv.stopWatch = nil
		}
		srv.db.SimulateCrash(persist, time.Now().UnixNano())
		ndb, info := srv.db.Reopen()
		ndb.StartCheckpointer()
		srv.db = ndb
		srv.startObs(*anomalySTW, *anomalyOp, *anomalyLag)
		if *serveRepl != "" {
			if err := srv.serveReplOn(ndb, *serveRepl); err != nil {
				log.Printf("serve-repl after crash: %v", err)
			}
		}
		fmt.Fprintf(w, "crashed and recovered in %v: %v, replayed %d pre-images\n",
			time.Since(t0), info.Status, info.LogEntriesApplied)
		for i, sr := range info.Shards {
			fmt.Fprintf(w, "  shard %d: %v, %d pre-images, epoch %d\n",
				i, sr.Status, sr.LogEntriesApplied, sr.Epoch)
		}
	})
	mux.HandleFunc("/reshard", func(w http.ResponseWriter, r *http.Request) {
		// GET reports live progress; POST runs an online split/merge. Both
		// go through withDB: Reshard swaps the engine inside the DB, so the
		// *DB pointer handlers hold stays valid throughout — only /crash
		// replaces the instance itself.
		if r.Method == http.MethodGet {
			srv.withDB(func(db *incll.DB) {
				w.Header().Set("Content-Type", "application/json")
				json.NewEncoder(w).Encode(db.ReshardProgress())
			})
			return
		}
		if r.Method != http.MethodPost {
			http.Error(w, "method", http.StatusMethodNotAllowed)
			return
		}
		n, err := strconv.Atoi(r.URL.Query().Get("shards"))
		if err != nil || n < 1 {
			http.Error(w, "bad shards", http.StatusBadRequest)
			return
		}
		if srv.follower() != nil {
			http.Error(w, "follower: reshard the primary", http.StatusConflict)
			return
		}
		srv.withDB(func(db *incll.DB) {
			t0 := time.Now()
			res, err := db.Reshard(n)
			if err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			log.Printf("resharded %d→%d in %v (cutover pause %v, %d keys copied)",
				res.From, res.To, time.Since(t0), res.CutoverPause, res.CopiedKeys)
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(struct {
				incll.ReshardResult
				CutoverPauseMS float64 `json:"cutover_pause_ms"`
				TookMS         float64 `json:"took_ms"`
			}{res, float64(res.CutoverPause.Microseconds()) / 1000,
				float64(res.Took.Microseconds()) / 1000})
		})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		srv.withDB(func(db *incll.DB) {
			st := db.Stats()
			fmt.Fprintf(w, "puts=%d gets=%d deletes=%d scans=%d\n",
				st.Puts.Load(), st.Gets.Load(), st.Deletes.Load(), st.Scans.Load())
			fmt.Fprintf(w, "loggedNodes=%d inCLLperm=%d inCLLval=%d lazyRecoveries=%d\n",
				st.LoggedNodes.Load(), st.InCLLPerm.Load(), st.InCLLVal.Load(), st.LazyRecoveries.Load())
			fmt.Fprintf(w, "nvm: %v\n", db.NVMStats())
			if db.Shards() > 1 {
				total := st.Puts.Load() + st.Gets.Load() + st.Deletes.Load() + st.Scans.Load()
				for i := 0; i < db.Shards(); i++ {
					ss := db.ShardStats(i)
					ops := ss.Puts.Load() + ss.Gets.Load() + ss.Deletes.Load() + ss.Scans.Load()
					pct := 0.0
					if total > 0 {
						pct = 100 * float64(ops) / float64(total)
					}
					fmt.Fprintf(w, "shard %d: puts=%d gets=%d deletes=%d scans=%d (%.1f%% of ops)\n",
						i, ss.Puts.Load(), ss.Gets.Load(), ss.Deletes.Load(), ss.Scans.Load(), pct)
				}
			}
		})
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		srv.withDB(func(db *incll.DB) {
			if err := db.WriteMetrics(w); err != nil {
				log.Printf("metrics scrape aborted: %v", err)
			}
		})
	})
	mux.HandleFunc("/metrics/history", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		srv.withDB(func(db *incll.DB) {
			if err := db.WriteMetricsHistory(w); err != nil {
				log.Printf("metrics history aborted: %v", err)
			}
		})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness vs readiness, split by the ?ready query:
		//
		//   - Liveness (default) answers "should this process be
		//     restarted?" — 200 while the store can execute a read at
		//     all, regardless of role or replication lag. A lagging
		//     follower is alive; restarting it would only force a full
		//     re-bootstrap and make the lag worse.
		//   - Readiness (?ready) answers "should this node receive
		//     traffic?" — a follower is ready only while connected to
		//     its primary with replication lag at most -ready-lag
		//     epochs; beyond that its reads are too stale to serve and
		//     the probe fails with 503 so load balancers drain it. A
		//     primary is always ready once it serves.
		//
		// Both probe via a real read: a wedged store (not just a wedged
		// mux) fails. The key never exists; the probe is the lookup.
		_, ready := r.URL.Query()["ready"]
		srv.mu.RLock()
		defer srv.mu.RUnlock()
		role, applied, lag := "primary", uint64(0), uint64(0)
		probe := func(db *incll.DB) { db.Get([]byte("\x00healthz\x00")) }
		if srv.fol != nil {
			role = "follower"
			applied = srv.fol.AppliedEpoch()
			lag = srv.fol.Lag().Epochs
			if ready {
				if !srv.fol.Connected() {
					http.Error(w, fmt.Sprintf("not ready: disconnected from primary (applied epoch %d)", applied),
						http.StatusServiceUnavailable)
					return
				}
				if lag > *readyLag {
					http.Error(w, fmt.Sprintf("not ready: lag %d epochs exceeds %d", lag, *readyLag),
						http.StatusServiceUnavailable)
					return
				}
			}
			// View pins the store so a mid-probe reconnect swap is safe.
			if srv.fol.View(probe) != nil {
				http.Error(w, "follower closed", http.StatusServiceUnavailable)
				return
			}
		} else {
			applied = srv.db.ReleasedEpoch()
			probe(srv.db)
		}
		fmt.Fprintf(w, "ok role=%s applied=%d lag=%d\n", role, applied, lag)
	})
	mux.HandleFunc("/digest", func(w http.ResponseWriter, r *http.Request) {
		// An order- and byte-exact digest of the whole keyspace
		// (length-prefixed FNV-1a over the ascending scan), for cheap
		// cluster-equality checks: two nodes with equal digests hold
		// byte-identical stores.
		srv.withDB(func(db *incll.DB) {
			h := fnv.New64a()
			var n uint64
			var lenb [8]byte
			for k, v := range db.All() {
				binary.LittleEndian.PutUint64(lenb[:], uint64(len(k)))
				h.Write(lenb[:])
				h.Write(k)
				binary.LittleEndian.PutUint64(lenb[:], uint64(len(v)))
				h.Write(lenb[:])
				h.Write(v)
				n++
			}
			fmt.Fprintf(w, "fnv=%016x keys=%d\n", h.Sum64(), n)
		})
	})
	mux.HandleFunc("/promote", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method", http.StatusMethodNotAllowed)
			return
		}
		srv.mu.Lock()
		defer srv.mu.Unlock()
		if srv.fol == nil {
			http.Error(w, "already a primary", http.StatusConflict)
			return
		}
		db, err := srv.fol.Promote()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		srv.fol = nil
		srv.db = db
		db.StartCheckpointer()
		srv.startObs(*anomalySTW, *anomalyOp, *anomalyLag)
		if *serveRepl != "" {
			if err := srv.serveReplOn(db, *serveRepl); err != nil {
				log.Printf("serve-repl after promote: %v", err)
			}
		}
		log.Printf("promoted to primary at epoch %d", db.ReleasedEpoch())
		fmt.Fprintf(w, "promoted role=primary epoch=%d\n", db.ReleasedEpoch())
	})
	mux.HandleFunc("/follow", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method", http.StatusMethodNotAllowed)
			return
		}
		addr := r.URL.Query().Get("addr")
		if addr == "" {
			http.Error(w, "need ?addr=host:port", http.StatusBadRequest)
			return
		}
		// Follow the new primary first — only once its bootstrap succeeds
		// is the old role torn down, so a bad address leaves the node as
		// it was.
		fol, err := incll.FollowPrimary(addr, incll.FollowerOptions{
			Options: opts, ID: *replID, Logf: log.Printf,
		})
		if err != nil {
			http.Error(w, fmt.Sprintf("follow %s: %v", addr, err), http.StatusBadGateway)
			return
		}
		srv.mu.Lock()
		old, oldFol, oldRS := srv.db, srv.fol, srv.rs
		srv.db, srv.fol, srv.rs = nil, fol, nil
		srv.startObs(*anomalySTW, *anomalyOp, *anomalyLag)
		srv.mu.Unlock()
		if oldRS != nil {
			oldRS.Close()
		}
		if oldFol != nil {
			oldFol.Close()
		}
		if old != nil {
			old.Close()
		}
		log.Printf("now following %s from epoch %d", addr, fol.AppliedEpoch())
		fmt.Fprintf(w, "following %s role=follower applied=%d\n", addr, fol.AppliedEpoch())
	})
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
		// One node's cluster health document (DESIGN.md §15): role, epoch
		// horizons, and — on a primary — the per-peer replication progress
		// and commit-to-apply propagation latency. incll-top polls this.
		srv.mu.RLock()
		defer srv.mu.RUnlock()
		w.Header().Set("Content-Type", "application/json")
		var cs incll.ClusterStatus
		if srv.fol != nil {
			cs = srv.fol.ClusterStatus()
		} else {
			cs = srv.db.ClusterStatus()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(cs)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		srv.withDB(func(db *incll.DB) {
			if err := db.DumpTrace(w); err != nil {
				log.Printf("trace dump aborted: %v", err)
			}
		})
	})
	// The typed snapshot under expvar's conventional endpoint. Published
	// through srv so /crash swapping in a recovered DB swaps the metrics
	// source too.
	expvar.Publish("incll", expvar.Func(func() any {
		srv.mu.RLock()
		defer srv.mu.RUnlock()
		if srv.fol != nil {
			var m any
			srv.fol.View(func(db *incll.DB) { m = db.Metrics() })
			return m
		}
		return srv.db.Metrics()
	}))
	mux.Handle("/debug/vars", expvar.Handler())
	if *pprofOn {
		// The custom mux doesn't inherit net/http/pprof's DefaultServeMux
		// registrations; wire them explicitly.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	// The write timeout bounds how long a wedged client can pin a
	// /snapshot handler (the journal's pinned-retention grace cap bounds
	// the memory side independently).
	hs := &http.Server{Addr: *addr, Handler: mux, WriteTimeout: 10 * time.Minute}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("listening on %s", *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("shutting down: draining requests, then closing the store")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		if !errors.Is(err, context.DeadlineExceeded) {
			log.Printf("http shutdown: %v", err)
		}
		// Drain deadline blown (e.g. a slow /snapshot download): force the
		// connections closed so the lingering handlers abort — their writes
		// fail, the client's restore fails its checksum — and release the
		// store lock the final Close below waits on.
		hs.Close()
	}
	// withDB holds the read lock for a handler's whole lifetime, so this
	// write lock cannot be acquired while any handler still uses the DB:
	// Close never races an in-flight request.
	srv.mu.Lock()
	if srv.fol != nil {
		srv.fol.Close()
	} else {
		// Final checkpoint + durable clean-shutdown mark; any replication
		// followers drain the final epoch before their connections close.
		srv.db.Close()
	}
	srv.mu.Unlock()
	log.Printf("store closed cleanly")
}
