package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"emts/internal/route"
	"emts/internal/server"
)

// numBackends is the emts-serve count behind the router.
const numBackends = 2

// stack is the serving tier in one process: emts-router in front of
// numBackends emts-serve backends, every tier on a loopback listener with
// its shipped default configuration.
type stack struct {
	backends    []*server.Server
	backendURLs []string
	router      *route.Router
	routerURL   string
	servers     []*http.Server
	serving     sync.WaitGroup
	client      *http.Client
}

// listen serves h on a fresh loopback port and returns its base URL.
func (st *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listening: %w", err)
	}
	srv := &http.Server{Handler: h}
	st.servers = append(st.servers, srv)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return "http://" + ln.Addr().String(), nil
}

// startStack starts the backends and the router. Backend IDs are fixed
// names rather than ports, so a graph's owner depends only on its bytes.
func startStack() (*stack, error) {
	st := &stack{client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 16,
		DisableCompression:  true,
	}}}
	var members []route.Backend
	for i := 0; i < numBackends; i++ {
		b := server.New(server.Config{})
		st.backends = append(st.backends, b)
		u, err := st.listen(b.Handler())
		if err != nil {
			st.close()
			return nil, err
		}
		st.backendURLs = append(st.backendURLs, u)
		members = append(members, route.Backend{ID: fmt.Sprintf("backend-%d", i), URL: u})
	}
	r, err := route.New(route.Config{Backends: members})
	if err != nil {
		st.close()
		return nil, fmt.Errorf("starting router: %w", err)
	}
	st.router = r
	if st.routerURL, err = st.listen(r.Handler()); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// close stops the listeners, then the router and the backends, and waits for
// every serving goroutine to return.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for _, srv := range st.servers {
		errs = append(errs, srv.Shutdown(ctx))
	}
	st.serving.Wait()
	if st.router != nil {
		errs = append(errs, st.router.Shutdown(ctx))
	}
	for _, b := range st.backends {
		errs = append(errs, b.Shutdown(ctx))
	}
	st.client.CloseIdleConnections()
	return errors.Join(errs...)
}

// post sends body to base+path and returns the status, the X-Emts-Cache
// header and the body.
func (st *stack) post(base, path string, body []byte) (int, string, []byte, error) {
	resp, err := st.client.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", nil, fmt.Errorf("reading response: %w", err)
	}
	return resp.StatusCode, resp.Header.Get("X-Emts-Cache"), b, nil
}

// do sends a bodiless request and returns the status and body.
func (st *stack) do(method, url string) (int, []byte, error) {
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := st.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("reading response: %w", err)
	}
	return resp.StatusCode, b, nil
}
