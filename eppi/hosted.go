package eppi

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"repro/internal/epoch"
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

// PublishEpoch exports the constructed index as the next epoch of the
// epoch store rooted at root (internal/epoch): the shard set lands under
// epochs/<n>/ and the store's CURRENT pointer is flipped atomically, so
// serving nodes watching the store hot-swap to the new version without a
// restart. The construction's ε-audit report travels with the shard set
// as epochs/<n>/privacy.json. Returns the epoch number published. Like
// WriteIndex, only public state leaves the provider network: the
// report carries aggregates and a name+ε violation sample, never
// per-identity frequencies or the identity→ε-decile map — those stay
// inside the network behind PrivacyDetail. It fails before
// ConstructPPI.
func (n *Network) PublishEpoch(root string, shards int) (uint64, error) {
	published, names, err := n.publishedHandle()
	if err != nil {
		return 0, err
	}
	pub := epoch.Publisher{Root: root}
	e, err := pub.PublishWithReport(published, names, shards, n.PrivacyReport(), nil)
	if err != nil {
		return 0, fmt.Errorf("eppi: publish epoch: %w", err)
	}
	return e, nil
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

// QueryBatch implements the batched QueryPPI on the hosted copy: one
// snapshot answers every owner, misses are in-band (Found=false).
func (h *HostedService) QueryBatch(ctx context.Context, owners []string) []index.BatchItem {
	return h.server.QueryBatch(ctx, owners)
}

// Providers returns the provider count the index covers.
func (h *HostedService) Providers() int { return h.server.Providers() }

// Owners returns the number of indexed identities.
func (h *HostedService) Owners() int { return h.server.Owners() }

// Handler returns the HTTP locator API (GET /v1/query, POST
// /v1/query/batch, GET /v1/healthz, GET /v1/privacy) over this hosted
// index, ready for http.Serve.
func (h *HostedService) Handler() (http.Handler, error) {
	return httpapi.NewHandler(h.server)
}
