// Command mcfsd is the long-lived assignment service: it loads an MCFS
// instance once, performs one warm solve (or restores a snapshot), and
// serves assignment queries and population churn over HTTP/JSON.
//
//	mcfsd -in inst.mcfs -addr 127.0.0.1:8080
//	mcfsd -in inst.mcfs -restore snap.json
//	mcfsd -in inst.mcfs -snapshot-every 30s -snapshot-dir /var/lib/mcfsd
//	mcfsd -in inst.mcfs -restore /var/lib/mcfsd   # newest valid generation
//
// Endpoints:
//
//	GET  /assign?customer=H   resolve a customer handle to its facility
//	POST /arrivals            {"nodes":[...]} admit customers, returns handles
//	POST /departures          {"handles":[...]} remove customers
//	POST /resolve             {"algorithm":"wma"} full re-solve + adopt
//	GET  /snapshot            restartable JSON capture of the dynamic state
//	GET  /stats               objective, drift, per-endpoint latency
//	GET  /metrics             Prometheus text exposition (work counters,
//	                          batch counters, latency histograms)
//	GET  /healthz             liveness probe + build info + uptime
//
// Every request is logged as one structured line (stderr, log/slog)
// tagged with a request id that is echoed back as X-Request-Id; -quiet
// disables the log. -debug-addr opt-in binds a SECOND listener serving
// net/http/pprof and expvar (solver work counters under the
// "mcfs_counters" var) — keep it on a loopback or otherwise trusted
// address, profiling endpoints are not for the public network.
//
// Durability and self-healing (DESIGN.md §12): -snapshot-every with
// -snapshot-dir persists a generation of the dynamic state on every
// interval via atomic temp+rename, keeping the newest -snapshot-keep
// generations; -restore accepts either a snapshot file or a generation
// directory, picking the newest generation that parses and skipping
// corrupt ones. -drift-threshold enables the drift-triggered background
// re-solve: when the published objective exceeds threshold × the drift
// baseline, a full re-solve is scheduled through the batch loop (with
// hysteresis and -heal-interval backoff).
//
// The daemon prints "mcfsd: listening on http://ADDR" once the socket
// is bound (use -addr 127.0.0.1:0 to pick a free port) and drains
// gracefully on SIGINT/SIGTERM: the listener closes first, then the
// writer goroutine finishes its batch and exits.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers profiling handlers on DefaultServeMux (served only on -debug-addr)
	"os"
	"os/signal"
	"syscall"
	"time"

	"mcfs"
	"mcfs/internal/serve"
)

func main() {
	var (
		in        = flag.String("in", "", "instance file (required)")
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address (host:0 picks a free port)")
		algo      = flag.String("algo", "wma", "default algorithm for POST /resolve")
		drift     = flag.Float64("drift", 0, "reallocator drift factor (0 = default 1.5, negative disables)")
		restore   = flag.String("restore", "", "restore dynamic state from a snapshot file or generation directory")
		batch     = flag.Int("batch", 0, "max operations coalesced per repair window (0 = default)")
		opTimeout = flag.Duration("optimeout", 0, "per-operation deadline (0 = default 5s)")
		snapEvery = flag.Duration("snapshot-every", 0, "periodic snapshot interval (0 = disabled; requires -snapshot-dir)")
		snapDir   = flag.String("snapshot-dir", "", "directory for periodic snapshot generations")
		snapKeep  = flag.Int("snapshot-keep", 0, "snapshot generations to retain (0 = default 3)")
		driftThr  = flag.Float64("drift-threshold", 0, "drift ratio that triggers a background re-solve (0 = disabled, must exceed 1)")
		healEvery = flag.Duration("heal-interval", 0, "minimum spacing between drift-triggered re-solves (0 = default 30s)")
		debugAddr = flag.String("debug-addr", "", "optional second listener for net/http/pprof + expvar (trusted networks only)")
		quiet     = flag.Bool("quiet", false, "disable the structured per-request log")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "mcfsd: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	algorithm, err := mcfs.ParseAlgorithm(*algo)
	if err != nil {
		fatal(err)
	}

	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	inst, err := mcfs.ReadInstance(f)
	//lint:ignore closecheck read path: the file is only read, and a parse error dominates any close error
	f.Close()
	if err != nil {
		fatal(err)
	}

	var snap *mcfs.ReallocatorSnapshot
	if *restore != "" {
		if fi, err := os.Stat(*restore); err == nil && fi.IsDir() {
			// A generation directory: pick the newest snapshot that
			// parses, skipping corrupt ones (a crash can tear at most the
			// file being written when the discipline is violated by the
			// environment — recovery steps back one interval).
			var path string
			var skipped []string
			snap, path, skipped, err = serve.LoadNewestSnapshot(*restore)
			if err != nil {
				fatal(err)
			}
			for _, p := range skipped {
				fmt.Fprintf(os.Stderr, "mcfsd: skipping corrupt snapshot %s\n", p)
			}
			if snap != nil {
				fmt.Printf("mcfsd: restoring from %s\n", path)
			} else {
				fmt.Printf("mcfsd: no snapshots in %s, starting fresh\n", *restore)
			}
		} else {
			sf, err := os.Open(*restore)
			if err != nil {
				fatal(err)
			}
			snap, err = mcfs.ReadReallocatorSnapshot(sf)
			//lint:ignore closecheck read path: the file is only read, and a parse error dominates any close error
			sf.Close()
			if err != nil {
				fatal(err)
			}
		}
	}

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	engine, err := serve.New(serve.Config{
		Instance:        inst,
		Algorithm:       algorithm,
		DriftFactor:     *drift,
		MaxBatch:        *batch,
		DefaultTimeout:  *opTimeout,
		Snapshot:        snap,
		Logger:          logger,
		SnapshotEvery:   *snapEvery,
		SnapshotDir:     *snapDir,
		SnapshotKeep:    *snapKeep,
		DriftThreshold:  *driftThr,
		HealMinInterval: *healEvery,
	})
	if err != nil {
		fatal(err)
	}

	// Optional debug listener: pprof registered itself on
	// http.DefaultServeMux via its import; expvar contributes the
	// standard vars plus the solver work counters.
	debugErr := make(chan error, 1)
	var debugSrv *http.Server
	if *debugAddr != "" {
		expvar.Publish("mcfs_counters", expvar.Func(func() any {
			return engine.Recorder().Snapshot()
		}))
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			engine.Close()
			fatal(err)
		}
		fmt.Printf("mcfsd: debug listener (pprof, expvar) on http://%s\n", dln.Addr())
		debugSrv = &http.Server{Handler: http.DefaultServeMux}
		go func() { debugErr <- debugSrv.Serve(dln) }()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		engine.Close()
		fatal(err)
	}
	// Catch signals before announcing the address: a client that reads
	// the line and sends SIGTERM at once must get a clean shutdown, not
	// the default action of dying on the signal.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("mcfsd: listening on http://%s (objective %d, %d customers)\n",
		ln.Addr(), engine.Objective(), engine.View().Customers())

	srv := &http.Server{Handler: engine.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case sig := <-sigs:
		fmt.Printf("mcfsd: %s, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "mcfsd: shutdown:", err)
		}
		cancel()
		<-errCh // Serve has returned ErrServerClosed
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			shutdownDebug(debugSrv, debugErr)
			engine.Close()
			fatal(err)
		}
	}
	shutdownDebug(debugSrv, debugErr)
	engine.Close()
	fmt.Println("mcfsd: bye")
}

// shutdownDebug closes the debug listener (when one was started) and
// joins its serve goroutine.
func shutdownDebug(srv *http.Server, errCh chan error) {
	if srv == nil {
		return
	}
	_ = srv.Close()
	<-errCh
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcfsd:", err)
	os.Exit(1)
}
