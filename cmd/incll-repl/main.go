// Command incll-repl drives the checkpoint-anchored replication
// subsystem end to end: export a consistent online snapshot of a live
// store to a file, restore and verify it, or run a live replica (a
// follower of the primary's own loopback replication server) under write
// load and watch its lag.
//
// The store lives in simulated NVM, so every mode builds its own primary
// (a YCSB-style preload) before exercising the replication path — the
// point is the protocol and its throughput, not long-term storage.
//
// Usage:
//
//	incll-repl -mode snapshot -size 200000 -o /tmp/db.snap
//	incll-repl -mode restore  -i /tmp/db.snap -shards 4
//	incll-repl -mode roundtrip -size 200000 -shards 4
//	incll-repl -mode replica  -size 100000 -ops 400000
//
// The networked modes run the TCP replication tier across processes: a
// serve-mode primary preloads, listens for followers, applies a write
// load, and shuts down cleanly (followers drain the final epoch); a
// connect-mode follower bootstraps over the wire, applies the live
// stream, and reports its convergence.
//
//	incll-repl -mode serve   -listen 127.0.0.1:9090 -size 100000 -ops 400000
//	incll-repl -mode follow  -connect 127.0.0.1:9090
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"time"

	"incll"
	"incll/internal/crashtest"
)

func main() {
	mode := flag.String("mode", "roundtrip", "snapshot | restore | roundtrip | replica | serve | follow")
	size := flag.Uint64("size", 100_000, "primary preload size (keys)")
	valueSize := flag.Int("valuesize", 128, "byte-value payload size")
	shards := flag.Int("shards", 1, "primary shard count")
	restoreShards := flag.Int("restoreshards", 0, "restore/replica shard count (0 = same as -shards)")
	ops := flag.Int("ops", 200_000, "replica mode: write ops against the primary")
	out := flag.String("o", "", "snapshot output file (snapshot mode)")
	in := flag.String("i", "", "snapshot input file (restore mode)")
	interval := flag.Duration("interval", 8*time.Millisecond, "replica/serve mode: primary checkpoint interval")
	listen := flag.String("listen", "", "serve mode: replication listen address")
	connect := flag.String("connect", "", "follow mode: primary replication address")
	followers := flag.Int("followers", 1, "serve mode: followers to wait for before applying load")
	flag.Parse()

	if *restoreShards == 0 {
		*restoreShards = *shards
	}
	switch *mode {
	case "snapshot":
		if *out == "" {
			log.Fatal("-mode snapshot needs -o FILE")
		}
		primary := buildPrimary(*size, *valueSize, *shards)
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		w := bufio.NewWriterSize(f, 1<<20)
		t0 := time.Now()
		info, err := primary.Snapshot(w)
		if err != nil {
			log.Fatalf("snapshot: %v", err)
		}
		if err := w.Flush(); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		el := time.Since(t0)
		fmt.Printf("snapshot: %d keys + %d change ops, anchor epoch %d\n", info.Keys, info.ChangeOps, info.AnchorEpoch)
		fmt.Printf("  %d bytes in %v = %.1f MB/s -> %s\n", info.Bytes, el.Round(time.Millisecond),
			float64(info.Bytes)/el.Seconds()/1e6, *out)
		primary.Close()

	case "restore":
		if *in == "" {
			log.Fatal("-mode restore needs -i FILE")
		}
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		db, info, err := incll.Restore(bufio.NewReaderSize(f, 1<<20), incll.Options{Shards: *restoreShards})
		if err != nil {
			log.Fatalf("restore: %v", err)
		}
		el := time.Since(t0)
		fmt.Printf("restore: %d keys + %d change ops verified (anchor epoch %d, source %d shard(s))\n",
			info.Keys, info.ChangeOps, info.AnchorEpoch, info.SourceShards)
		fmt.Printf("  %d bytes in %v = %.1f MB/s into %d shard(s); store holds %d keys\n",
			info.Bytes, el.Round(time.Millisecond), float64(info.Bytes)/el.Seconds()/1e6,
			*restoreShards, db.RebuildLen())
		db.Close()

	case "roundtrip":
		primary := buildPrimary(*size, *valueSize, *shards)
		pr, pw := io.Pipe()
		type expRes struct {
			info incll.SnapshotInfo
			err  error
		}
		expc := make(chan expRes, 1)
		t0 := time.Now()
		go func() {
			info, err := primary.Snapshot(pw)
			pw.CloseWithError(err)
			expc <- expRes{info, err}
		}()
		db, rinfo, err := incll.Restore(pr, incll.Options{Shards: *restoreShards})
		pr.CloseWithError(err) // unblock the exporter if the restore failed first
		exp := <-expc
		if exp.err != nil {
			log.Fatalf("snapshot: %v", exp.err)
		}
		if err != nil {
			log.Fatalf("restore: %v", err)
		}
		el := time.Since(t0)
		fmt.Printf("roundtrip: %d keys, %d shards -> %d shards, anchor epoch %d\n",
			rinfo.Keys, *shards, *restoreShards, rinfo.AnchorEpoch)
		fmt.Printf("  %d bytes streamed in %v = %.1f MB/s end to end\n",
			rinfo.Bytes, el.Round(time.Millisecond), float64(rinfo.Bytes)/el.Seconds()/1e6)
		verifyEqual(primary, db)
		db.Close()
		primary.Close()

	case "replica":
		primary, rs := servePrimary("127.0.0.1:0", *size, *valueSize, *shards, *interval, incll.ReplServerOptions{})
		t0 := time.Now()
		rep, err := incll.FollowPrimary(rs.Addr().String(), incll.FollowerOptions{
			Options: incll.Options{Shards: *restoreShards},
		})
		if err != nil {
			log.Fatalf("bootstrap: %v", err)
		}
		fmt.Printf("replica bootstrapped in %v at epoch %d\n",
			time.Since(t0).Round(time.Millisecond), rep.AppliedEpoch())
		// The primary's view of its one follower: byte lag, bytes streamed.
		peer := func() (p incll.PeerStatus) {
			if ps := rs.Peers(); len(ps) > 0 {
				p = ps[0]
			}
			return p
		}

		done := make(chan struct{})
		go func() {
			defer close(done)
			h := primary.Handle(1)
			for i := 0; i < *ops; i++ {
				h.Put(incll.Key(uint64(i)%*size), uint64(i))
			}
		}()
		tick := time.NewTicker(250 * time.Millisecond)
	loop:
		for {
			select {
			case <-done:
				break loop
			case <-tick.C:
				p := peer()
				fmt.Printf("  applied epoch %d, lag %d epoch(s) / %d bytes, %0.1f MB streamed\n",
					rep.AppliedEpoch(), rep.Lag().Epochs, p.LagBytes, float64(p.SentBytes)/1e6)
			}
		}
		tick.Stop()
		primary.StopCheckpointer()
		primary.Checkpoint()
		if err := rep.WaitWatermark(primary.ReleasedEpoch(), 30*time.Second); err != nil {
			log.Fatalf("catch-up: %v", err)
		}
		fmt.Printf("caught up at epoch %d (%.1f MB streamed)\n", rep.AppliedEpoch(), float64(peer().SentBytes)/1e6)
		promoted, err := rep.Promote()
		if err != nil {
			log.Fatalf("promote: %v", err)
		}
		verifyEqual(primary, promoted)
		fmt.Println("promoted replica verified equal to primary")
		promoted.Close()
		primary.Close()

	case "serve":
		if *listen == "" {
			log.Fatal("-mode serve needs -listen ADDR")
		}
		primary, rs := servePrimary(*listen, *size, *valueSize, *shards, *interval, incll.ReplServerOptions{Logf: log.Printf})
		fmt.Printf("serving replication on %s (%d keys preloaded)\n", rs.Addr(), *size)
		for len(rs.Peers()) < *followers {
			time.Sleep(50 * time.Millisecond)
		}
		h := primary.Handle(1)
		t0 := time.Now()
		last := t0
		for i := 0; i < *ops; i++ {
			h.Put(incll.Key(uint64(i)%*size), uint64(i))
			if time.Since(last) > 250*time.Millisecond {
				last = time.Now()
				for _, p := range rs.Peers() {
					fmt.Printf("  peer %s: acked epoch %d, lag %d epoch(s) / %d bytes, rtt %v\n",
						p.ID, p.AckedEpoch, p.LagEpochs, p.LagBytes, p.RTT)
				}
			}
		}
		fmt.Printf("applied %d ops in %v; closing (followers drain the final epoch)\n",
			*ops, time.Since(t0).Round(time.Millisecond))
		fmt.Printf("  heartbeat rtt p99 %v across %d peer(s)\n", rs.HeartbeatRTT(0.99), len(rs.Peers()))
		primary.Close()

	case "follow":
		if *connect == "" {
			log.Fatal("-mode follow needs -connect ADDR")
		}
		t0 := time.Now()
		fol, err := incll.FollowPrimary(*connect, incll.FollowerOptions{
			Options: incll.Options{Shards: *restoreShards},
			Logf:    log.Printf,
		})
		if err != nil {
			log.Fatalf("follow: %v", err)
		}
		bi := fol.BootstrapInfo()
		el := time.Since(t0)
		fmt.Printf("bootstrapped %d keys (%d bytes) in %v = %.1f MB/s, anchor epoch %d\n",
			bi.Keys, bi.Bytes, el.Round(time.Millisecond), float64(bi.Bytes)/el.Seconds()/1e6, bi.AnchorEpoch)
		// Stream until the primary goes away for good (clean close included:
		// the client retries, so "down for 3s" is the end-of-run signal).
		for {
			time.Sleep(250 * time.Millisecond)
			if down, d := fol.Down(); down && d > 3*time.Second {
				break
			}
			fmt.Printf("  applied epoch %d, primary released %d, lag %d epoch(s)\n",
				fol.AppliedEpoch(), fol.PrimaryReleased(), fol.Lag().Epochs)
		}
		fmt.Printf("stream ended at applied epoch %d; store holds %d keys\n",
			fol.AppliedEpoch(), fol.DB().RebuildLen())
		fol.Close()

	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}

// servePrimary builds a preloaded primary that checkpoints every interval
// and serves replication on addr.
func servePrimary(addr string, size uint64, valueSize, shards int, interval time.Duration, o incll.ReplServerOptions) (*incll.DB, *incll.ReplServer) {
	primary, _ := incll.Open(incll.Options{Shards: shards, Workers: 2, EpochInterval: interval})
	preload(primary, size, valueSize)
	primary.StartCheckpointer()
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatal(err)
	}
	rs, err := primary.ServeReplication(lis, o)
	if err != nil {
		log.Fatal(err)
	}
	return primary, rs
}

// buildPrimary preloads a store and commits the load.
func buildPrimary(size uint64, valueSize, shards int) *incll.DB {
	db, _ := incll.Open(incll.Options{Shards: shards, Workers: 2})
	preload(db, size, valueSize)
	return db
}

func preload(db *incll.DB, size uint64, valueSize int) {
	val := make([]byte, valueSize)
	for i := range val {
		val[i] = byte(i * 131)
	}
	for k := uint64(0); k < size; k++ {
		if _, err := db.PutBytes(incll.Key(k), val); err != nil {
			log.Fatal(err)
		}
	}
	db.Checkpoint()
}

// verifyEqual checks byte-identical All() iteration of both DBs, in both
// directions (the acceptance property's check, shared with the crash
// campaign).
func verifyEqual(a, b *incll.DB) {
	if err := crashtest.EqualBothDirections(a, b); err != nil {
		log.Fatalf("verify: %v", err)
	}
	fmt.Printf("  verified: %d entries byte-identical in both directions\n", a.RebuildLen())
}
