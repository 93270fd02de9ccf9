package socialnet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Token is an opaque session credential issued by the platform. The S-CDN
// middleware validates tokens before touching allocation servers
// (Section V: "access to allocation servers can only take place after
// users have been authenticated through their social network").
type Token string

// AuthService issues and validates session tokens. Tokens are bound to a
// user and an expiry measured on a caller-supplied clock, so simulations
// can drive expiry with virtual time.
type AuthService struct {
	mu       sync.Mutex
	rng      *rand.Rand
	sessions map[Token]session
	// pruneAt is the session count at which Issue next drops expired
	// sessions: twice what its last prune left, and never below
	// minPruneAt, so each Issue stays amortised O(1).
	pruneAt int
}

// minPruneAt is the smallest session map Issue prunes.
const minPruneAt = 1024

type session struct {
	user    UserID
	expires time.Duration // absolute point on the caller's clock
	revoked bool
}

// NewAuthService creates a token service; seed drives token generation.
func NewAuthService(seed int64) *AuthService {
	return &AuthService{
		rng:      rand.New(rand.NewSource(seed)),
		sessions: make(map[Token]session),
		pruneAt:  minPruneAt,
	}
}

// Issue creates a token for user valid until now+ttl on the caller's
// clock. A non-positive ttl yields an error. Once the session map has
// doubled since its last prune, Issue first drops every session expired
// at now, so a long-lived service does not keep one entry per login
// forever; a dropped token validates as unknown.
func (a *AuthService) Issue(user UserID, now, ttl time.Duration) (Token, error) {
	if ttl <= 0 {
		return "", fmt.Errorf("socialnet: non-positive token ttl %v", ttl)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	raw := make([]byte, 16)
	for i := range raw {
		raw[i] = byte(a.rng.Intn(256))
	}
	sum := sha256.Sum256(append(raw, []byte(fmt.Sprintf("%d@%d", user, now))...))
	tok := Token(hex.EncodeToString(sum[:16]))
	if len(a.sessions) >= a.pruneAt {
		for t, s := range a.sessions {
			if now >= s.expires {
				delete(a.sessions, t)
			}
		}
		a.pruneAt = max(2*len(a.sessions), minPruneAt)
	}
	a.sessions[tok] = session{user: user, expires: now + ttl}
	return tok, nil
}

// Validate returns the user a token belongs to if it is current at `now`.
func (a *AuthService) Validate(tok Token, now time.Duration) (UserID, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.sessions[tok]
	if !ok {
		return 0, fmt.Errorf("socialnet: unknown token")
	}
	if s.revoked {
		return 0, fmt.Errorf("socialnet: token revoked")
	}
	if now >= s.expires {
		return 0, fmt.Errorf("socialnet: token expired")
	}
	return s.user, nil
}

// Revoke invalidates a token immediately. Revoking an unknown token is an
// error so callers notice bookkeeping bugs.
func (a *AuthService) Revoke(tok Token) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.sessions[tok]
	if !ok {
		return fmt.Errorf("socialnet: unknown token")
	}
	s.revoked = true
	a.sessions[tok] = s
	return nil
}

// ActiveSessions counts unexpired, unrevoked sessions at `now`.
func (a *AuthService) ActiveSessions(now time.Duration) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, s := range a.sessions {
		if !s.revoked && now < s.expires {
			n++
		}
	}
	return n
}
