package topo

// Health is the array-wide availability registry backing fault
// injection and hot-swap modeling: which clusters are online, degraded
// (serving reads while their data evacuates) or physically unplugged,
// and which FIMMs are dead. It is pure bookkeeping — the array and the
// autonomic manager consult it on placement and admission decisions;
// the fault injector mutates it.
//
// All methods tolerate a nil receiver (everything reports online), so
// components can hold an optional *Health without guarding every call.

// ClusterState is a cluster's availability for I/O and data placement.
type ClusterState uint8

const (
	// ClusterOnline serves I/O and accepts new data placement.
	ClusterOnline ClusterState = iota
	// ClusterDegraded still serves reads and in-flight writes but is
	// excluded from new placement while its live data evacuates.
	ClusterDegraded
	// ClusterOffline is hot-unplugged: nothing behind it is reachable.
	ClusterOffline
)

func (s ClusterState) String() string {
	switch s {
	case ClusterOnline:
		return "online"
	case ClusterDegraded:
		return "degraded"
	case ClusterOffline:
		return "offline"
	}
	return "unknown"
}

// FIMMState is one FIMM module's availability.
type FIMMState uint8

const (
	// FIMMOnline is a healthy module.
	FIMMOnline FIMMState = iota
	// FIMMDead is a module that stopped responding; its resident pages
	// are lost (or remapped elsewhere, when recovery is enabled).
	FIMMDead
)

func (s FIMMState) String() string {
	switch s {
	case FIMMOnline:
		return "online"
	case FIMMDead:
		return "dead"
	}
	return "unknown"
}

// Health tracks per-cluster and per-FIMM availability.
type Health struct {
	g        Geometry
	clusters []ClusterState
	fimms    []FIMMState
}

// NewHealth returns an all-online registry for the geometry.
func NewHealth(g Geometry) *Health {
	return &Health{
		g:        g,
		clusters: make([]ClusterState, g.TotalClusters()),
		fimms:    make([]FIMMState, g.TotalFIMMs()),
	}
}

// Cluster reports a cluster's state.
func (h *Health) Cluster(id ClusterID) ClusterState {
	if h == nil {
		return ClusterOnline
	}
	return h.clusters[id.Flat(h.g)]
}

// SetCluster records a cluster state transition.
func (h *Health) SetCluster(id ClusterID, s ClusterState) {
	h.clusters[id.Flat(h.g)] = s
}

// FIMM reports a module's state.
func (h *Health) FIMM(id FIMMID) FIMMState {
	if h == nil {
		return FIMMOnline
	}
	return h.fimms[id.Flat(h.g)]
}

// SetFIMM records a module state transition.
func (h *Health) SetFIMM(id FIMMID, s FIMMState) {
	h.fimms[id.Flat(h.g)] = s
}

// Placeable reports whether new data may be placed on the FIMM: the
// module is alive and its cluster fully online.
func (h *Health) Placeable(id FIMMID) bool {
	if h == nil {
		return true
	}
	return h.FIMM(id) == FIMMOnline && h.Cluster(id.ClusterID) == ClusterOnline
}

// ClusterPlaceable reports whether a cluster accepts new data.
func (h *Health) ClusterPlaceable(id ClusterID) bool {
	return h == nil || h.Cluster(id) == ClusterOnline
}
