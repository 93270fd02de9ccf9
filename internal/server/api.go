package server

// Wire types of the serving-plane HTTP API (v1). All bodies are JSON
// unless noted.
//
//	POST /v1/login    LoginRequest → LoginResponse
//	POST /v1/resolve  ResolveRequest → ResolveResponse   (Bearer token)
//	GET  /v1/fetch/{dataset}  → payload bytes            (Bearer token)
//	GET  /v1/fetch/{dataset}/segments/{n}  → one segment (Bearer token)
//	PUT  /v1/datasets/{dataset}  octet-stream → manifest (Bearer token)
//	POST /v1/report   ReportRequest → 204                (Bearer token)
//	GET  /metrics     → text exposition
//	GET  /healthz     → "ok"
//
// Fetch honors HTTP range requests (Range: bytes=a-b, a-, -k): one
// part is answered 206 + Content-Range, up to 16 parts (overlapping and
// adjacent ones merged) as 206 multipart/byteranges; full responses
// advertise Accept-Ranges: bytes. Malformed or unsatisfiable ranges are
// answered with 416, never with a silent full body. The segment route
// is the fetch route over one segment's window of a segmented dataset:
// a plain 200 of that window, 404 when the dataset is unsegmented or
// the ordinal out of range.
//
// Upload (upload.go) publishes a new dataset: the body is raw bytes,
// X-SCDN-Digest declares their dataset digest (ingest.Manifest.Digest:
// the SHA-256 of the concatenated 64 KiB block digests) up front, and
// X-SCDN-Group scopes the dataset to a collaboration group. Large
// uploads may arrive as parallel stripes, each carrying
// "Content-Range: bytes a-b/total"; the stripe completing the byte
// count answers 201 with the accepted manifest JSON (see
// internal/ingest), the rest answer 204. Bytes that do not hash to the
// declared digest are rejected with 422 and leave no state.

// peerHeader marks a fetch as an edge-to-edge hop: the receiving node
// serves only what it holds itself and never fans out again, which
// bounds a fallback chain at one hop and makes proxy loops impossible.
// Written in canonical form, so the lookup every fetch makes does not
// allocate a canonicalized copy of the key.
const peerHeader = "X-Scdn-Peer"

// LoginRequest authenticates a platform user and opens a session. In the
// paper the credentials come from the social network platform; here the
// platform is in-process, so the serving plane fronts its auth service.
type LoginRequest struct {
	User int64 `json:"user"`
}

// LoginResponse carries the session token.
type LoginResponse struct {
	Token string `json:"token"`
}

// ResolveRequest asks for the best replica of a dataset. The requester is
// taken from the session token; the body names only the dataset.
type ResolveRequest struct {
	Dataset string `json:"dataset"`
}

// ResolveResponse names the selected replica holder. URL is empty when
// the holder contributes storage but no HTTP endpoint. Replicas lists
// every online holder so striped clients can fan range fetches out across
// them (the GridFTP-style parallel transfer of Section V-A).
//
// For datasets the serving plane stores segmented (large objects at or
// above the node's segment threshold), SegmentSize and Segments give
// the geometry behind GET /v1/fetch/{dataset}/segments/{n}: segment i
// covers bytes [i*SegmentSize, min((i+1)*SegmentSize, Bytes)). Both are
// absent for unsegmented datasets. Integrity is the manifest's block
// digests, which every segment boundary aligns to.
type ResolveResponse struct {
	Dataset     string        `json:"dataset"`
	Node        int64         `json:"node"`
	Site        int           `json:"site"`
	URL         string        `json:"url,omitempty"`
	Origin      bool          `json:"origin"`
	Bytes       int64         `json:"bytes"`
	Replicas    []ReplicaInfo `json:"replicas,omitempty"`
	SegmentSize int64         `json:"segment_size,omitempty"`
	Segments    int64         `json:"segments,omitempty"`
}

// ReplicaInfo is one online replica holder in a ResolveResponse.
type ReplicaInfo struct {
	Node   int64  `json:"node"`
	Site   int    `json:"site"`
	URL    string `json:"url,omitempty"`
	Origin bool   `json:"origin"`
}

// ReportRequest delivers client-side usage statistics (Section V-A: the
// client "reports usage statistics" to the allocation servers).
type ReportRequest struct {
	Client    int64             `json:"client"`
	Accesses  uint64            `json:"accesses"`
	ByOutcome map[string]uint64 `json:"by_outcome,omitempty"`
}

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}
