package obs

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// Server is a live observability endpoint:
//
//	/metrics       registry snapshot (expvar-style JSON)
//	/trace         tracer ring-buffer export
//	/debug/vars    standard expvar (includes the registry under "mssg")
//	/debug/pprof/  net/http/pprof profiles (heap, goroutine, profile, ...)
//
// It binds its own mux, so running one never pollutes (or depends on)
// http.DefaultServeMux.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// publishOnce guards the expvar publication of the default registry:
// expvar panics on duplicate names, and tests may start several servers.
var publishOnce sync.Once

// ServeFlag starts the -metrics-addr server of command prog over the
// process-wide registry and tracer, and prints its URL to stderr. An
// empty addr serves nothing and returns a nil *Server, whose Close is a
// no-op.
func ServeFlag(prog, addr string) (*Server, error) {
	if addr == "" {
		return nil, nil
	}
	s, err := Serve(addr, nil, nil)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: metrics on http://%s/metrics\n", prog, s.Addr())
	return s, nil
}

// Serve starts the observability server on addr (e.g. ":8080",
// "127.0.0.1:0"). reg and tr may be nil, selecting the process-wide
// defaults.
func Serve(addr string, reg *Registry, tr *Tracer) (*Server, error) {
	if reg == nil {
		reg = Default()
	}
	if tr == nil {
		tr = DefaultTracer()
	}
	publishOnce.Do(func() {
		expvar.Publish("mssg", expvar.Func(func() any { return Default().Snapshot() }))
	})

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = tr.WriteJSON(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "mssg observability\n\n/metrics\n/trace\n/debug/vars\n/debug/pprof/\n")
	})

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close gracefully drains in-flight scrapes (bounded) and stops the
// server. Safe on a nil *Server.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// OnSignal invokes fn (in its own goroutine) the first time the process
// receives SIGINT or SIGTERM. The cmd/ tools use it to flush final
// stats snapshots and shut the metrics server down instead of dying
// mid-run; fn is expected to exit the process, but if it returns, a
// second signal falls back to Go's default (immediate) handling.
func OnSignal(fn func(os.Signal)) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		signal.Stop(ch)
		fn(sig)
	}()
}
