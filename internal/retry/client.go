package retry

import (
	"net"
	"net/http"
	"time"
)

// newTransport builds the shared upstream transport: bounded dial and TLS
// handshake times (a dead peer costs seconds, not the OS's minutes-long
// SYN retry ladder) and a small keep-alive pool per host. Each caller
// gets its own transport so one client's connection-pool state (or an
// injected fault wrapper) never bleeds into another's.
func newTransport() *http.Transport {
	return &http.Transport{
		DialContext: (&net.Dialer{
			Timeout:   2 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		TLSHandshakeTimeout: 2 * time.Second,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	}
}

// HTTPClient is the shared constructor for the repo's upstream HTTP
// clients (service.Client's attempts, the harnesses' stats reads, health
// probers): one place to decide dial/TLS bounds instead of scattered
// http.Client literals. The timeout caps each whole request, response body
// included (0 = no cap; prefer HTTPClientPerRequest then).
func HTTPClient(timeout time.Duration) *http.Client {
	return &http.Client{Timeout: timeout, Transport: newTransport()}
}

// HTTPClientPerRequest builds a client for callers that bound each call
// with its own context deadline (the router's proxy attempts, adoption
// RPCs): no global Timeout — a client-wide cap would race the caller's
// per-request deadlines — but the same bounded dial/TLS transport.
func HTTPClientPerRequest() *http.Client {
	return &http.Client{Transport: newTransport()}
}
