package scdn

import (
	"fmt"
	"io"
	"time"

	"scdn/internal/core"
	"scdn/internal/graph"
	"scdn/internal/metrics"
	"scdn/internal/placement"
	"scdn/internal/socialnet"
	"scdn/internal/storage"
	"scdn/internal/workload"
)

// ResearcherID identifies a participant in the collaboration.
type ResearcherID = graph.NodeID

// DatasetID identifies a shared dataset.
type DatasetID = storage.DatasetID

// TieType classifies a social relationship.
type TieType = socialnet.RelationshipType

// Relationship types re-exported for community construction.
const (
	Acquaintance   = socialnet.Acquaintance
	Colleague      = socialnet.Colleague
	Coauthor       = socialnet.Coauthor
	ProjectPartner = socialnet.ProjectPartner
)

// Community is a collaboration under construction: researchers, their
// social ties, and the storage they contribute.
type Community struct {
	users  []core.User
	edges  []core.Edge
	seen   map[ResearcherID]bool
	errors []error
}

// NewCommunity starts an empty collaboration.
func NewCommunity() *Community {
	return &Community{seen: make(map[ResearcherID]bool)}
}

// Researcher describes a participant to add.
type Researcher struct {
	ID   ResearcherID
	Name string
	// Site is the network-model site hosting the researcher's storage;
	// -1 auto-assigns across the built-in world-site catalog.
	Site int
	// StorageBytes is the contributed folder size; ReplicaReserveBytes is
	// the portion the CDN may manage. Zero values take system defaults.
	StorageBytes        int64
	ReplicaReserveBytes int64
	// Institutional nodes (lab servers) are always on; personal machines
	// follow a diurnal availability pattern when churn is enabled.
	Institutional bool
}

// Add registers a researcher. Errors (duplicate IDs) are deferred to
// Build so construction can be fluently chained.
func (c *Community) Add(r Researcher) *Community {
	if c.seen[r.ID] {
		c.errors = append(c.errors, fmt.Errorf("scdn: duplicate researcher %d", r.ID))
		return c
	}
	c.seen[r.ID] = true
	c.users = append(c.users, core.User{
		ID: r.ID, Name: r.Name, SiteID: r.Site,
		CapacityBytes: r.StorageBytes, ReplicaReserveBytes: r.ReplicaReserveBytes,
		Institutional: r.Institutional,
	})
	return c
}

// Connect records a social tie between two researchers; strength is
// application-defined (e.g., number of joint publications).
func (c *Community) Connect(a, b ResearcherID, tie TieType, strength float64) *Community {
	if !c.seen[a] || !c.seen[b] {
		c.errors = append(c.errors, fmt.Errorf("scdn: tie %d-%d references unknown researcher", a, b))
		return c
	}
	c.edges = append(c.edges, core.Edge{A: a, B: b, Type: tie, Strength: strength})
	return c
}

// Size returns the number of researchers added so far.
func (c *Community) Size() int { return len(c.users) }

// Options tunes the assembled S-CDN. The zero value is usable; see
// DefaultOptions for the concrete defaults.
type Options struct {
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed int64
	// AllocationServers sets the catalog cluster size (default 2).
	AllocationServers int
	// Placement chooses the replica-placement algorithm by name (see
	// Algorithms); default "Community Node Degree".
	Placement string
	// MaxReplicas bounds per-dataset replication (default 5).
	MaxReplicas int
	// DemandThreshold is the per-sweep access count that triggers
	// re-replication (default 8).
	DemandThreshold uint64
	// Strategy optionally overrides Placement with a live-data algorithm:
	// "trust" ranks hosts by accumulated proven trust, "availability" by
	// uptime-weighted degree. Empty or "social" uses Placement.
	Strategy string
	// MigrationUptimeFloor enables replica migration: maintenance sweeps
	// move replicas off hosts whose availability trace is below this
	// uptime (0 disables).
	MigrationUptimeFloor float64
	// Churn enables diurnal node availability (default true in
	// DefaultOptions; the zero value disables it).
	Churn bool
	// TransferFailureProb is the per-attempt transient transfer failure
	// probability (default 0.02).
	TransferFailureProb float64
	// DisableP2PFallback turns off social-neighbourhood replica discovery
	// during total allocation-server outages (on by default).
	DisableP2PFallback bool
	// TransferStreams sets GridFTP-style parallel streams per transfer
	// (default 1; GlobusTransfer deployments typically use 4).
	TransferStreams int
	// GroupName scopes all datasets (default "collaboration").
	GroupName string
}

// DefaultOptions returns the standard configuration.
func DefaultOptions(seed int64) Options {
	return Options{
		Seed:                seed,
		AllocationServers:   2,
		Placement:           "Community Node Degree",
		MaxReplicas:         5,
		DemandThreshold:     8,
		Churn:               true,
		TransferFailureProb: 0.02,
		GroupName:           "collaboration",
	}
}

// Network is a running S-CDN over a community.
type Network struct {
	sys *core.SCDN
}

// Build assembles the S-CDN: social platform, middleware, allocation
// cluster, repositories, clients, transfer engine, and churn model.
func (c *Community) Build(opts Options) (*Network, error) {
	if len(c.errors) > 0 {
		return nil, c.errors[0]
	}
	cfg := core.DefaultConfig(opts.Seed)
	if opts.AllocationServers > 0 {
		cfg.AllocationServers = opts.AllocationServers
	}
	if opts.Placement != "" {
		alg, err := placement.ByName(opts.Placement)
		if err != nil {
			return nil, err
		}
		cfg.Placement = alg
	}
	if opts.MaxReplicas > 0 {
		cfg.MaxReplicas = opts.MaxReplicas
	}
	if opts.DemandThreshold > 0 {
		cfg.DemandThreshold = opts.DemandThreshold
	}
	switch opts.Strategy {
	case "", "social":
		cfg.Strategy = core.StrategySocial
	case "trust":
		cfg.Strategy = core.StrategyTrust
	case "availability":
		cfg.Strategy = core.StrategyAvailability
	default:
		return nil, fmt.Errorf("scdn: unknown strategy %q (want social|trust|availability)", opts.Strategy)
	}
	cfg.MigrationUptimeFloor = opts.MigrationUptimeFloor
	cfg.P2PFallback = !opts.DisableP2PFallback
	cfg.TransferStreams = opts.TransferStreams
	cfg.Churn = opts.Churn
	if opts.TransferFailureProb > 0 {
		cfg.TransferFailureProb = opts.TransferFailureProb
	}
	if opts.GroupName != "" {
		cfg.GroupName = opts.GroupName
	}
	sys, err := core.New(cfg, c.users, c.edges)
	if err != nil {
		return nil, err
	}
	return &Network{sys: sys}, nil
}

// Publish introduces a dataset owned by a researcher; the origin copy
// stays in the owner's repository and the dataset is scoped to the
// collaboration group.
func (n *Network) Publish(owner ResearcherID, id DatasetID, bytes int64) error {
	return n.sys.PublishDataset(owner, id, bytes)
}

// Replicate asks the CDN to place k replicas of a dataset using the
// configured social placement algorithm; transfers complete as the
// simulation runs. It returns the selected hosts.
func (n *Network) Replicate(id DatasetID, k int) ([]ResearcherID, error) {
	return n.sys.PlaceReplicas(id, k)
}

// AccessResult re-exports the client access outcome.
type AccessResult = core.AccessResult

// Access outcomes re-exported for result inspection.
const (
	LocalHit       = core.LocalHit
	ReplicaFetch   = core.ReplicaFetch
	OriginFetch    = core.OriginFetch
	Denied         = core.Denied
	Unavailable    = core.Unavailable
	TransferFailed = core.TransferFailed
)

// Request performs one data access for a researcher; done (optional)
// fires in virtual time when the access completes.
func (n *Network) Request(user ResearcherID, id DatasetID, done func(AccessResult)) error {
	return n.sys.RequestAccess(user, id, done)
}

// WorkloadRequest schedules one access at a virtual-time offset.
type WorkloadRequest = workload.Request

// Schedule queues workload requests on the simulation clock.
func (n *Network) Schedule(reqs []WorkloadRequest) { n.sys.LoadRequests(reqs) }

// Run advances the simulation to the given virtual time.
func (n *Network) Run(until time.Duration) { n.sys.Run(until) }

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.sys.Engine.Now().Duration() }

// Replicas returns the nodes currently holding a dataset (origin
// included).
func (n *Network) Replicas(id DatasetID) ([]ResearcherID, error) {
	reps, err := n.sys.Cluster.Replicas(id)
	if err != nil {
		return nil, err
	}
	out := make([]ResearcherID, 0, len(reps))
	for _, r := range reps {
		out = append(out, ResearcherID(r.Node))
	}
	return out, nil
}

// HasLocal reports whether a researcher's repository holds a dataset.
func (n *Network) HasLocal(user ResearcherID, id DatasetID) (bool, error) {
	repo, err := n.sys.Repository(user)
	if err != nil {
		return false, err
	}
	return repo.HasLocal(id), nil
}

// TrustScore returns the accumulated proven-trust score between two
// researchers at the current virtual time.
func (n *Network) TrustScore(a, b ResearcherID) float64 {
	return n.sys.Trust.Score(a, b, n.Now())
}

// Update publishes a new version of a dataset from its owner; replicas
// become stale until the anti-entropy protocol propagates the update.
func (n *Network) Update(id DatasetID) error { return n.sys.UpdateDataset(id) }

// Stale reports whether any replica of the dataset is behind its latest
// published version.
func (n *Network) Stale(id DatasetID) bool { return n.sys.Stale(id) }

// StalenessReport summarizes replica freshness across the CDN.
type StalenessReport = core.StalenessReport

// Staleness returns the current replication freshness summary.
func (n *Network) Staleness() StalenessReport { return n.sys.Staleness() }

// Metrics exposes the Section V-E metric sets.
func (n *Network) Metrics() (*metrics.CDNMetrics, *metrics.SocialMetrics) {
	return n.sys.CDN, n.sys.Social
}

// WriteReport prints the Section V-E CDN and social metrics report.
func (n *Network) WriteReport(w io.Writer) error {
	return metrics.Report(w, n.sys.CDN, n.sys.Social, n.Now())
}

// Algorithms lists the available placement algorithm names: the paper's
// four first, then the extensions.
func Algorithms() []string {
	var out []string
	for _, a := range placement.PaperAlgorithms() {
		out = append(out, a.Name())
	}
	for _, a := range placement.ExtendedAlgorithms() {
		out = append(out, a.Name())
	}
	return out
}
