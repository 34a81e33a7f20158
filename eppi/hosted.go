package eppi

import (
	"fmt"
	"io"
	"net/http"

	"repro/internal/httpapi"
	"repro/internal/index"
)

// This file implements the deployment split of the paper's system model:
// the index is *constructed* inside the provider network but *hosted* by an
// untrusted third party. WriteIndex exports exactly what the host may see
// (the published matrix M' and identity labels — never β, thresholds or ε),
// and HostedService is the host-side query server.

// WriteIndex serializes the constructed index for transfer to a
// third-party host. It fails before ConstructPPI.
func (n *Network) WriteIndex(w io.Writer) (int64, error) {
	srv, err := n.serverHandle()
	if err != nil {
		return 0, err
	}
	return srv.WriteTo(w)
}

// HostedService is the untrusted locator service: it can answer QueryPPI
// but holds no private state and cannot perform AuthSearch.
type HostedService struct {
	server *index.Server
}

// ReadHostedService loads an index previously exported with WriteIndex.
func ReadHostedService(r io.Reader) (*HostedService, error) {
	srv, err := index.Read(r)
	if err != nil {
		return nil, fmt.Errorf("eppi: load hosted index: %w", err)
	}
	return &HostedService{server: srv}, nil
}

// Query implements QueryPPI on the hosted copy.
func (h *HostedService) Query(owner string) ([]int, error) {
	return h.server.Query(owner)
}

// Handler returns the HTTP locator API (GET /v1/query, POST
// /v1/query/batch, GET /v1/healthz, GET /v1/privacy) over this hosted
// index, ready for http.Serve.
func (h *HostedService) Handler() (http.Handler, error) {
	return httpapi.NewHandler(h.server)
}
