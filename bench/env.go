package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/service"
	"repro/pkg/client"
)

// numClients is the closed-loop client count: callers of the SDK block
// on each reply, and two of them already share this box's two cores
// with the daemon.
const numClients = 2

// env is one booted in-process graphd on a loopback listener plus the
// SDK clients that drive it, exactly as a user of pkg/client would.
type env struct {
	srv     *service.Server
	hs      *http.Server
	served  chan error
	dataDir string // "" for the in-memory daemon
	clients [numClients]*client.Client
	conns   [numClients]*http.Transport
}

// boot starts a daemon with cfg. When durable, cfg gets a fresh data
// directory that close removes. wrap, when non-nil, wraps the daemon's
// handler (the traced run's span recorder).
func boot(cfg service.Config, durable bool, wrap func(http.Handler) http.Handler) (*env, error) {
	e := &env{served: make(chan error, 1)}
	if durable {
		dir, err := os.MkdirTemp("", "graphbench-data-")
		if err != nil {
			return nil, err
		}
		e.dataDir = dir
		cfg.DataDir = dir
	}
	cfg.OpLog = log.New(io.Discard, "", 0)
	srv, err := service.NewServer(cfg)
	if err != nil {
		e.close()
		return nil, fmt.Errorf("booting graphd: %w", err)
	}
	e.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	e.hs = &http.Server{Handler: h}
	go func() { e.served <- e.hs.Serve(ln) }()
	for i := range e.clients {
		// One connection per client, no retries: a failed op is counted,
		// not hidden.
		e.conns[i] = &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
		hc := &http.Client{Timeout: 60 * time.Second, Transport: e.conns[i]}
		c, err := client.New("http://"+ln.Addr().String(), client.WithHTTPClient(hc), client.WithRetries(0))
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients[i] = c
	}
	return e, nil
}

// close stops the listener and the daemon, waits for the serve
// goroutine, and removes the data directory. Safe on a half-built env.
func (e *env) close() error {
	var errs []error
	for _, t := range e.conns {
		if t != nil {
			t.CloseIdleConnections()
		}
	}
	if e.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		errs = append(errs, e.hs.Shutdown(ctx))
		cancel()
		if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		e.hs = nil
	}
	if e.srv != nil {
		e.srv.Close()
		e.srv = nil
	}
	if e.dataDir != "" {
		errs = append(errs, os.RemoveAll(e.dataDir))
		e.dataDir = ""
	}
	return errors.Join(errs...)
}
