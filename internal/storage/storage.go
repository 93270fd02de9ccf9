// Package storage is the serving plane's disk volume: the on-disk
// realization of the CDN-managed replica partition (Section V-A). A
// DiskVolume keeps each node's replicas as extents of append-only pack
// files published by an index log (diskvolume.go, pack.go), enforces a
// byte quota with LRU eviction, and pools read handles so the server can
// serve by sendfile. Datasets above the serving plane's threshold are laid
// out as fixed-size segments, each its own volume entry (segment.go).
// The simulator's model of a researcher's shared folder lives in
// internal/core.
package storage

// DatasetID identifies a dataset (or dataset fragment) in the CDN.
type DatasetID string

// NodeID identifies a participant: an edge that holds replicas, or a
// client that only fetches.
type NodeID = int64
