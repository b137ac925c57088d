package obs

import "net/http"

// TopologyNode is one redirector's placement in the combining plane as
// reported by GET /v1/topology.
type TopologyNode struct {
	// ID is the tree node id; Region names the declared region ("flat" on
	// a non-hierarchical plane).
	ID     int    `json:"id"`
	Region string `json:"region,omitempty"`
	// Parent is the current parent node id (-1 at the global root).
	Parent int `json:"parent"`
	// Level is the hop distance from the global root (0 at the root).
	Level int `json:"level"`
	// SubRoot marks a regional sub-root (aggregates its region before
	// rolling up into the global tier).
	SubRoot bool `json:"sub_root,omitempty"`
	// Alive is false once the local failure detector pruned the node.
	Alive bool `json:"alive"`
}

// TopologyInfo is the GET /v1/topology response body: the serving node's
// current view of the combining plane. It mirrors internal/topology and
// internal/combining state without importing either (obs sits below both).
type TopologyInfo struct {
	// Self is the serving node's id; Root the current global root.
	Self int `json:"self"`
	Root int `json:"root"`
	// Levels is the tree depth (2 for a flat plane, >=3 hierarchical).
	Levels int `json:"levels"`
	// Nodes lists every declared member with its live placement.
	Nodes []TopologyNode `json:"nodes"`
	// Epoch and GlobalEpoch are the serving node's local tree epoch and
	// the epoch of the last global broadcast it applied.
	Epoch       int `json:"epoch"`
	GlobalEpoch int `json:"global_epoch"`
	// Delta compression counters (zero when disabled).
	DeltaEnabled           bool   `json:"delta_enabled"`
	DeltaBytesSaved        uint64 `json:"delta_bytes_saved"`
	DeltaEntriesSuppressed uint64 `json:"delta_entries_suppressed"`
}

// serveTopology answers GET /v1/topology with the node's plane snapshot.
func (h *Handler) serveTopology(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	info := h.cfg.Topology()
	if info == nil {
		http.Error(w, "no combining plane configured", http.StatusNotFound)
		return
	}
	writeJSON(w, info)
}
