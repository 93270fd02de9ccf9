// Package core assembles the full S-CDN of the paper's Fig. 1: the social
// network platform, social middleware, allocation-server cluster,
// researcher repositories with CDN clients, the third-party transfer
// engine over a wide-area network model, node churn, the trust model, and
// the Section V-E metrics — all driven by one discrete-event simulation.
package core

import (
	"fmt"
	"sort"
	"time"

	"scdn/internal/allocation"
	"scdn/internal/availability"
	"scdn/internal/graph"
	"scdn/internal/metrics"
	"scdn/internal/middleware"
	"scdn/internal/netmodel"
	"scdn/internal/placement"
	"scdn/internal/provenance"
	"scdn/internal/replication"
	"scdn/internal/sim"
	"scdn/internal/socialnet"
	"scdn/internal/storage"
	"scdn/internal/transfer"
	"scdn/internal/trust"
	"scdn/internal/workload"
)

// NodeID aliases the shared participant identifier.
type NodeID = allocation.NodeID

// User describes one participating researcher.
type User struct {
	ID   graph.NodeID
	Name string
	// SiteID places the user's repository in the network model; use -1 to
	// auto-assign (round-robin over generated sites).
	SiteID int
	// CapacityBytes / ReplicaReserveBytes size the contributed repository;
	// zero values take Config defaults.
	CapacityBytes       int64
	ReplicaReserveBytes int64
	// Institutional marks always-on nodes (lab servers); others follow a
	// diurnal churn trace.
	Institutional bool
}

// Edge is a social tie between two users.
type Edge struct {
	A, B     graph.NodeID
	Type     socialnet.RelationshipType
	Strength float64
}

// Config parameterizes the assembled system.
type Config struct {
	Seed int64
	// AllocationServers is the cluster size (paper: "one or more").
	AllocationServers int
	// MaxReplicas / DemandThreshold tune the allocation policy.
	MaxReplicas     int
	DemandThreshold uint64
	// Placement selects replica locations (defaults to Community Node
	// Degree, the paper's best performer). Strategy can override it with
	// a runtime-data-bound algorithm.
	Placement placement.Algorithm
	// Strategy optionally replaces Placement with an algorithm bound to
	// live system state: StrategyTrust ranks by accumulated pairwise
	// trust, StrategyAvailability by uptime-weighted degree.
	Strategy Strategy
	// MigrationUptimeFloor: during maintenance sweeps, non-origin
	// replicas on nodes whose availability trace falls below this uptime
	// are migrated to better hosts (0 disables migration).
	MigrationUptimeFloor float64
	// DefaultCapacityBytes / DefaultReplicaReserveBytes size repositories
	// that don't specify their own.
	DefaultCapacityBytes       int64
	DefaultReplicaReserveBytes int64
	// SiteBandwidthMinMbps/MaxMbps bound generated access links.
	SiteBandwidthMinMbps, SiteBandwidthMaxMbps float64
	// Churn enables diurnal availability (institutional nodes stay up).
	Churn bool
	// MaintenanceInterval is the allocation sweep period.
	MaintenanceInterval time.Duration
	// SampleInterval drives availability/redundancy sampling.
	SampleInterval time.Duration
	// AntiEntropyInterval is the update-propagation round period.
	AntiEntropyInterval time.Duration
	// UpdateDeltaFraction sizes update deltas relative to the dataset
	// (default 0.1).
	UpdateDeltaFraction float64
	// TransferFailureProb sets the per-attempt transfer failure rate.
	TransferFailureProb float64
	// TransferStreams is the GridFTP-style parallel-stream count per
	// transfer (GlobusTransfer behaviour; default 1).
	TransferStreams int
	// P2PFallback lets clients discover replicas through their social
	// neighbourhood when no allocation server is live (the paper's
	// decentralized design alternative).
	P2PFallback bool
	// GroupName is the collaboration group all datasets are scoped to.
	GroupName string
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:                       seed,
		AllocationServers:          2,
		MaxReplicas:                5,
		DemandThreshold:            8,
		Placement:                  placement.CommunityNodeDegree{},
		DefaultCapacityBytes:       200e9,
		DefaultReplicaReserveBytes: 80e9,
		SiteBandwidthMinMbps:       50,
		SiteBandwidthMaxMbps:       1000,
		Churn:                      true,
		MaintenanceInterval:        6 * time.Hour,
		SampleInterval:             time.Hour,
		AntiEntropyInterval:        2 * time.Hour,
		UpdateDeltaFraction:        0.1,
		TransferFailureProb:        0.02,
		P2PFallback:                true,
		GroupName:                  "collaboration",
	}
}

// Strategy selects how replica hosts are ranked.
type Strategy int

// Placement strategies.
const (
	// StrategySocial uses Config.Placement (default).
	StrategySocial Strategy = iota
	// StrategyTrust ranks nodes by the sum of their neighbours' proven
	// trust scores from the live trust model.
	StrategyTrust
	// StrategyAvailability ranks by degree × uptime and forbids adjacent
	// replicas (the Section V-D availability-graph idea).
	StrategyAvailability
)

// SCDN is the assembled system.
type SCDN struct {
	Config      Config
	Engine      *sim.Engine
	Network     *netmodel.Network
	Platform    *socialnet.Platform
	Mw          *middleware.Middleware
	Cluster     *allocation.Cluster
	Transfer    *transfer.Engine
	Trust       *trust.Model
	Replication *replication.Tracker
	Provenance  *provenance.Log

	CDN    *metrics.CDNMetrics
	Social *metrics.SocialMetrics

	users   []User
	byID    map[graph.NodeID]*participant
	group   string
	dataset map[storage.DatasetID]int64  // registered sizes
	owner   map[storage.DatasetID]NodeID // publish-time origins

	// P2PLookups counts replica discoveries that bypassed the catalog.
	P2PLookups uint64
}

type participant struct {
	user   User
	repo   *Repository
	client *Client
	trace  *availability.Trace
	token  socialnet.Token
}

// directory adapts the assembled state to allocation.Directory.
type directory struct{ s *SCDN }

func (d directory) SiteOf(node NodeID) (int, bool) {
	p, ok := d.s.byID[graph.NodeID(node)]
	if !ok {
		return 0, false
	}
	return p.user.SiteID, true
}

func (d directory) Online(node NodeID) bool {
	return d.s.OnlineAt(graph.NodeID(node), d.s.Engine.Now().Duration())
}

func (d directory) RTT(a, b int) (time.Duration, error) { return d.s.Network.RTT(a, b) }

// fetcher adapts the transfer engine to the client interface, recording
// exchange metrics and trust interactions.
type fetcher struct{ s *SCDN }

func (f fetcher) Fetch(src, dst NodeID, bytes int64, done func(bool, time.Duration, float64)) error {
	s := f.s
	srcSite, ok := directory{s}.SiteOf(src)
	if !ok {
		return fmt.Errorf("core: unknown source user %d", src)
	}
	dstSite, ok := directory{s}.SiteOf(dst)
	if !ok {
		return fmt.Errorf("core: unknown destination user %d", dst)
	}
	s.Social.Exchanges.Inc()
	start := s.Engine.Now()
	return s.Transfer.Submit(srcSite, dstSite, bytes, func(r transfer.Result) {
		elapsed := (s.Engine.Now() - start).Duration()
		if r.Status == transfer.Completed {
			s.Social.SuccessfulExchanges.Inc()
			s.Social.TransactionVolumeBytes.Add(uint64(bytes))
			s.CDN.TransferThroughput.Observe(r.ThroughputMbps)
			s.Trust.Record(graph.NodeID(src), graph.NodeID(dst),
				trust.Interaction{Kind: trust.TransferCompleted, At: elapsedAt(s)})
			done(true, elapsed, r.ThroughputMbps)
			return
		}
		s.Social.FailedExchanges.Inc()
		s.Trust.Record(graph.NodeID(src), graph.NodeID(dst),
			trust.Interaction{Kind: trust.TransferFailed, At: elapsedAt(s)})
		done(false, elapsed, 0)
	})
}

func elapsedAt(s *SCDN) time.Duration { return s.Engine.Now().Duration() }

// New assembles an S-CDN over the given community.
func New(cfg Config, users []User, edges []Edge) (*SCDN, error) {
	if len(users) == 0 {
		return nil, fmt.Errorf("core: no users")
	}
	if cfg.AllocationServers < 1 {
		cfg.AllocationServers = 1
	}
	if cfg.Placement == nil {
		cfg.Placement = placement.CommunityNodeDegree{}
	}
	if cfg.GroupName == "" {
		cfg.GroupName = "collaboration"
	}
	if cfg.MaintenanceInterval <= 0 {
		cfg.MaintenanceInterval = 6 * time.Hour
	}
	if cfg.SampleInterval <= 0 {
		cfg.SampleInterval = time.Hour
	}

	s := &SCDN{
		Config:      cfg,
		Engine:      sim.New(cfg.Seed),
		Platform:    socialnet.New(cfg.Seed + 1),
		Trust:       trust.NewModel(0),
		Replication: replication.NewTracker(),
		Provenance:  provenance.NewLog(),
		CDN:         &metrics.CDNMetrics{},
		Social:      metrics.NewSocialMetrics(),
		users:       users,
		byID:        make(map[graph.NodeID]*participant, len(users)),
		group:       cfg.GroupName,
		dataset:     make(map[storage.DatasetID]int64),
		owner:       make(map[storage.DatasetID]NodeID),
	}

	// Network sites: one per distinct requested site, auto-assigning -1s.
	maxSite := -1
	for _, u := range users {
		if u.SiteID > maxSite {
			maxSite = u.SiteID
		}
	}
	autoCount := 0
	for i := range users {
		if users[i].SiteID < 0 {
			users[i].SiteID = maxSite + 1 + autoCount%16
			autoCount++
		}
	}
	needed := 0
	for _, u := range users {
		if u.SiteID+1 > needed {
			needed = u.SiteID + 1
		}
	}
	minBW, maxBW := cfg.SiteBandwidthMinMbps, cfg.SiteBandwidthMaxMbps
	if minBW <= 0 {
		minBW = 50
	}
	if maxBW < minBW {
		maxBW = minBW
	}
	net, _, err := netmodel.GenerateSites(needed, cfg.Seed+2, minBW, maxBW)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s.Network = net

	s.Mw = middleware.New(s.Platform, func() time.Duration { return s.Engine.Now().Duration() })
	s.Transfer = transfer.NewEngine(net, s.Engine)
	if cfg.TransferFailureProb > 0 {
		s.Transfer.FailureProb = cfg.TransferFailureProb
	}
	if cfg.TransferStreams > 1 {
		s.Transfer.StreamsPerTransfer = cfg.TransferStreams
	}

	cluster, err := allocation.NewCluster(cfg.AllocationServers, directory{s})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.MaxReplicas > 0 && cfg.DemandThreshold > 0 {
		cluster.SetPolicy(cfg.MaxReplicas, cfg.DemandThreshold)
	}
	s.Cluster = cluster

	// Participants: platform registration, repository, churn trace, client.
	churnRNG := s.Engine.Rand("churn")
	for _, u := range users {
		capBytes := u.CapacityBytes
		if capBytes <= 0 {
			capBytes = cfg.DefaultCapacityBytes
		}
		reserve := u.ReplicaReserveBytes
		if reserve <= 0 {
			reserve = cfg.DefaultReplicaReserveBytes
		}
		if reserve > capBytes {
			reserve = capBytes / 2
		}
		if err := s.Platform.Register(u.ID, socialnet.Profile{Name: u.Name, SiteID: u.SiteID}); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if err := s.Platform.JoinGroup(cfg.GroupName, u.ID); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		repo, err := NewRepository(int64(u.ID), u.SiteID, capBytes, reserve)
		if err != nil {
			return nil, fmt.Errorf("core: user %d: %w", u.ID, err)
		}
		var tr *availability.Trace
		if !cfg.Churn || u.Institutional {
			tr = availability.AlwaysOn(48, 30*time.Minute)
		} else {
			site, _ := net.Site(u.SiteID)
			tz := 0
			if site != nil {
				tz = site.TimeZoneOffset
			}
			tr = availability.Generate(availability.DefaultDiurnal(tz), churnRNG)
		}
		p := &participant{user: u, repo: repo, trace: tr}
		s.byID[u.ID] = p
		s.Social.RecordContribution(int64(u.ID), u.SiteID, reserve)
	}

	// Social ties.
	for _, e := range edges {
		if err := s.Platform.Connect(e.A, e.B, e.Type, e.Strength); err != nil {
			return nil, fmt.Errorf("core: edge %d-%d: %w", e.A, e.B, err)
		}
	}

	// Clients log in through the middleware and get wired to the cluster
	// and transfer engine.
	mwTTL := 100 * 365 * 24 * time.Hour // sessions outlive simulations
	s.Mw.TokenTTL = mwTTL
	for _, u := range users {
		p := s.byID[u.ID]
		tok, err := s.Mw.Login(u.ID)
		if err != nil {
			return nil, fmt.Errorf("core: login %d: %w", u.ID, err)
		}
		p.token = tok
		client, err := NewClient(NodeID(u.ID), tok, p.repo, s.Mw, fallbackResolver{s}, fetcher{s},
			func() time.Duration { return s.Engine.Now().Duration() })
		if err != nil {
			return nil, fmt.Errorf("core: client %d: %w", u.ID, err)
		}
		p.client = client
	}

	// Periodic maintenance, sampling, and update propagation.
	s.Engine.Ticker(cfg.MaintenanceInterval, func() bool { s.maintain(); return true })
	s.Engine.Ticker(cfg.SampleInterval, func() bool { s.sample(); return true })
	aeInterval := cfg.AntiEntropyInterval
	if aeInterval <= 0 {
		aeInterval = 2 * time.Hour
	}
	s.Engine.Ticker(aeInterval, func() bool { s.antiEntropy(); return true })
	return s, nil
}

// OnlineAt reports whether a user's node is up at the given virtual time.
func (s *SCDN) OnlineAt(id graph.NodeID, at time.Duration) bool {
	p, ok := s.byID[id]
	if !ok {
		return false
	}
	return p.trace.At(at)
}

// Client returns a user's CDN client.
func (s *SCDN) Client(id graph.NodeID) (*Client, error) {
	p, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown user %d", id)
	}
	return p.client, nil
}

// Repository returns a user's repository.
func (s *SCDN) Repository(id graph.NodeID) (*Repository, error) {
	p, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown user %d", id)
	}
	return p.repo, nil
}

// Users returns participant IDs sorted ascending.
func (s *SCDN) Users() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(s.byID))
	for id := range s.byID {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PublishDataset introduces a dataset: the owner keeps the origin copy in
// their repository's user partition, the middleware scopes it to the
// collaboration group, and the allocation cluster catalogues it.
func (s *SCDN) PublishDataset(owner graph.NodeID, id storage.DatasetID, bytes int64) error {
	p, ok := s.byID[owner]
	if !ok {
		return fmt.Errorf("core: unknown owner %d", owner)
	}
	if err := s.Mw.RegisterDataset(id, s.group); err != nil {
		return err
	}
	if err := s.Cluster.RegisterDataset(id, NodeID(owner), bytes); err != nil {
		return err
	}
	if err := p.repo.StoreUser(id, bytes, s.Engine.Now().Duration()); err != nil {
		return fmt.Errorf("core: owner %d cannot hold own dataset: %w", owner, err)
	}
	s.dataset[id] = bytes
	s.owner[id] = NodeID(owner)
	s.Replication.AddReplica(id, NodeID(owner), s.Engine.Now().Duration())
	s.Provenance.RecordCreated(id, NodeID(owner), s.Engine.Now().Duration())
	return nil
}

// PublishDerived publishes a dataset produced from parent by a workflow
// stage, recording the derivation in the provenance log.
func (s *SCDN) PublishDerived(owner graph.NodeID, id storage.DatasetID, bytes int64,
	parent storage.DatasetID, stage string) error {
	if err := s.PublishDataset(owner, id, bytes); err != nil {
		return err
	}
	s.Provenance.RecordDerived(id, parent, NodeID(owner), stage, s.Engine.Now().Duration())
	return nil
}

// PlaceReplicas selects up to k replica holders for a dataset with the
// configured placement algorithm over the collaboration's social graph
// and asks their clients to host copies (fetching from the origin). It
// returns the nodes that accepted.
func (s *SCDN) PlaceReplicas(id storage.DatasetID, k int) ([]graph.NodeID, error) {
	bytes, err := s.Cluster.DatasetBytes(id)
	if err != nil {
		return nil, err
	}
	origin, err := s.Cluster.Origin(id)
	if err != nil {
		return nil, err
	}
	g, err := s.Mw.GroupGraph(id)
	if err != nil {
		return nil, err
	}
	// Current holders never receive a second copy of the same dataset.
	holders := make(map[NodeID]struct{})
	if reps, err := s.Cluster.Replicas(id); err == nil {
		for _, r := range reps {
			holders[r.Node] = struct{}{}
		}
	}
	// Ask for extra candidates to cover the origin, holders, and decliners.
	cands := s.placementAlgorithm().Place(g, k+3+len(holders), s.Engine.Rand("placement"))
	var accepted []graph.NodeID
	placedAt := s.Engine.Now().Duration()
	for _, cand := range cands {
		if len(accepted) == k {
			break
		}
		if NodeID(cand) == origin {
			continue
		}
		if _, holds := holders[NodeID(cand)]; holds {
			continue
		}
		p, ok := s.byID[cand]
		if !ok {
			continue
		}
		s.Social.StorageRequests.Inc()
		reqStart := s.Engine.Now()
		cand := cand
		// A client that cannot host (full reserve, duplicate) declines
		// synchronously; acceptance completes asynchronously after the
		// replica transfer.
		declined := false
		p.client.HostReplica(id, origin, bytes, func(ok, fetched bool) {
			if !ok {
				declined = true
				return
			}
			s.Social.StorageAccepts.Inc()
			s.Social.AllocationDelay.Observe((s.Engine.Now() - reqStart).Duration().Seconds())
			if fetched {
				if err := s.Cluster.AddReplica(id, NodeID(cand), placedAt); err == nil {
					s.Social.AllocatedBytes.Add(float64(bytes))
					s.Replication.AddReplica(id, NodeID(cand), s.Engine.Now().Duration())
					s.Provenance.RecordReplicated(id, NodeID(cand), origin, s.Engine.Now().Duration())
				}
			}
		})
		if declined {
			continue
		}
		accepted = append(accepted, cand)
	}
	return accepted, nil
}

// RequestAccess performs one user data access, updating the CDN metrics.
// done may be nil.
func (s *SCDN) RequestAccess(user graph.NodeID, id storage.DatasetID, done func(AccessResult)) error {
	p, ok := s.byID[user]
	if !ok {
		return fmt.Errorf("core: unknown user %d", user)
	}
	p.client.Access(id, func(r AccessResult) {
		switch r.Outcome {
		case LocalHit:
			s.CDN.RequestsServed.Inc()
			s.CDN.LocalHits.Inc()
			s.Provenance.RecordAccessed(id, NodeID(user), 0, s.Engine.Now().Duration())
		case ReplicaFetch:
			s.CDN.RequestsServed.Inc()
			s.CDN.ReplicaHits.Inc()
			s.Social.RecordConsumption(int64(user), s.dataset[id])
			s.Provenance.RecordAccessed(id, NodeID(user), r.Source, s.Engine.Now().Duration())
		case OriginFetch:
			s.CDN.RequestsServed.Inc()
			s.CDN.OriginFetches.Inc()
			s.Social.RecordConsumption(int64(user), s.dataset[id])
			s.Provenance.RecordAccessed(id, NodeID(user), r.Source, s.Engine.Now().Duration())
		case Unavailable:
			s.CDN.RequestsFailed.Inc()
			s.CDN.ReplicaUnavailable.Inc()
		default: // Denied, TransferFailed
			s.CDN.RequestsFailed.Inc()
		}
		s.CDN.ResponseTime.Observe(r.Elapsed.Seconds())
		if done != nil {
			done(r)
		}
	})
	return nil
}

// LoadRequests schedules a workload's requests on the simulation clock.
func (s *SCDN) LoadRequests(reqs []workload.Request) {
	for _, r := range reqs {
		r := r
		s.Engine.ScheduleAt(sim.Time(r.At), func() {
			// Offline users defer their accesses until they return; model
			// this simply as issuing when scheduled only if online.
			if !s.OnlineAt(r.User, s.Engine.Now().Duration()) {
				return
			}
			_ = s.RequestAccess(r.User, r.Data, nil)
		})
	}
}

// Run drives the simulation until the deadline.
func (s *SCDN) Run(duration time.Duration) {
	s.Engine.RunUntil(sim.Time(duration))
}

// placementAlgorithm resolves the effective placement algorithm,
// binding live system state for the dynamic strategies.
func (s *SCDN) placementAlgorithm() placement.Algorithm {
	switch s.Config.Strategy {
	case StrategyTrust:
		now := s.Engine.Now().Duration()
		return placement.TrustWeightedDegree{
			Weights: func(u, v graph.NodeID) float64 {
				// Proven trust plus a base weight so cold-start systems
				// still see the social topology.
				return 1 + s.Trust.Score(u, v, now)
			},
		}
	case StrategyAvailability:
		return placement.AvailabilityAwareDegree{
			Quality: func(u graph.NodeID) float64 {
				p, ok := s.byID[u]
				if !ok {
					return 0
				}
				return p.trace.Uptime()
			},
		}
	default:
		return s.Config.Placement
	}
}

// maintain performs the allocation sweep: re-replicates hot datasets and
// migrates replicas away from low-availability hosts.
func (s *SCDN) maintain() {
	hot, err := s.Cluster.MaintenanceSweep()
	if err != nil {
		return
	}
	for _, h := range hot {
		_, _ = s.PlaceReplicas(h.ID, 1)
	}
	// Placement attempted for every recommendation (success or not):
	// acknowledge the observed demand so the next sweep starts fresh.
	s.Cluster.AckSweep(hot)
	if s.Config.MigrationUptimeFloor > 0 {
		s.migrateWeakReplicas()
	}
}

// migrateWeakReplicas moves replicas off hosts whose uptime is below the
// configured floor: a stronger host receives a fresh copy, then the weak
// holder's copy is retired. Each move counts toward the stability metric.
func (s *SCDN) migrateWeakReplicas() {
	ids, err := s.Cluster.Datasets()
	if err != nil {
		return
	}
	for _, id := range ids {
		reps, err := s.Cluster.Replicas(id)
		if err != nil {
			continue
		}
		origin, err := s.Cluster.Origin(id)
		if err != nil {
			continue
		}
		for _, r := range reps {
			if r.Node == origin {
				continue
			}
			p, ok := s.byID[graph.NodeID(r.Node)]
			if !ok || p.trace.Uptime() >= s.Config.MigrationUptimeFloor {
				continue
			}
			// Place a replacement first; only retire the weak copy once a
			// new holder accepted, so redundancy never drops.
			placed, err := s.PlaceReplicas(id, 1)
			if err != nil || len(placed) == 0 {
				continue
			}
			weak := r.Node
			if err := s.Cluster.RemoveReplica(id, weak); err == nil {
				if repo, err := s.Repository(graph.NodeID(weak)); err == nil {
					_ = repo.DropReplica(id)
				}
				s.Replication.RemoveReplica(id, weak)
				s.Provenance.RecordRetired(id, weak, s.Engine.Now().Duration())
				s.CDN.Migrations.Inc()
			}
		}
	}
}

// sample records availability and redundancy snapshots.
func (s *SCDN) sample() {
	now := s.Engine.Now().Duration()
	online := 0
	for _, p := range s.byID {
		if p.trace.At(now) {
			online++
		}
	}
	if len(s.byID) > 0 {
		s.CDN.AvailabilitySamples.Observe(float64(online) / float64(len(s.byID)))
	}
	ids, err := s.Cluster.Datasets()
	if err != nil {
		return
	}
	for _, id := range ids {
		s.CDN.RedundancySamples.Observe(float64(s.Cluster.ReplicaCount(id)))
	}
	s.CDN.StalenessSamples.Observe(s.Replication.StalenessRatio())
}
