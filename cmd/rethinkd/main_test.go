package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts: the daemon's server bounds header reads and
// idle keep-alives, and leaves writes unbounded for long-lived streams.
func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v: both must be set", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v would cut /v1/stream subscriptions", srv.WriteTimeout)
	}
	if srv.Addr != "127.0.0.1:0" || srv.Handler == nil {
		t.Fatalf("server not bound to its address and handler: %+v", srv)
	}
}
