package socialnet

import (
	"testing"
	"time"
)

func newPlatform(t *testing.T, users ...UserID) *Platform {
	t.Helper()
	p := New(1)
	for _, u := range users {
		if err := p.Register(u, Profile{Name: "u", SiteID: int(u)}); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func TestRegisterDuplicate(t *testing.T) {
	p := newPlatform(t, 1)
	if err := p.Register(1, Profile{}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if p.NumUsers() != 1 {
		t.Fatalf("NumUsers = %d", p.NumUsers())
	}
}

func TestProfileIsolation(t *testing.T) {
	p := New(1)
	orig := Profile{Name: "kyle", Interests: []string{"escience"}}
	p.Register(1, orig)
	orig.Interests[0] = "mutated"
	got, err := p.ProfileOf(1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Interests[0] != "escience" {
		t.Fatal("profile not copied on register")
	}
	got.Interests[0] = "mutated-again"
	got2, _ := p.ProfileOf(1)
	if got2.Interests[0] != "escience" {
		t.Fatal("profile not copied on read")
	}
	if _, err := p.ProfileOf(99); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestConnectValidation(t *testing.T) {
	p := newPlatform(t, 1, 2)
	if err := p.Connect(1, 1, Coauthor, 1); err == nil {
		t.Fatal("self tie accepted")
	}
	if err := p.Connect(1, 9, Coauthor, 1); err == nil {
		t.Fatal("unknown peer accepted")
	}
	if err := p.Connect(1, 2, Coauthor, 2.5); err != nil {
		t.Fatal(err)
	}
	if !p.Connected(1, 2) || !p.Connected(2, 1) {
		t.Fatal("tie not symmetric")
	}
	rels := p.RelationshipsOf(2)
	if len(rels) != 1 || rels[0].Peer != 1 || rels[0].Strength != 2.5 || rels[0].Type != Coauthor {
		t.Fatalf("relationships = %+v", rels)
	}
}

func TestRelationshipOverwrite(t *testing.T) {
	p := newPlatform(t, 1, 2)
	p.Connect(1, 2, Acquaintance, 1)
	p.Connect(1, 2, ProjectPartner, 5)
	rels := p.RelationshipsOf(1)
	if len(rels) != 1 || rels[0].Type != ProjectPartner || rels[0].Strength != 5 {
		t.Fatalf("overwrite failed: %+v", rels)
	}
}

func TestGroups(t *testing.T) {
	p := newPlatform(t, 1, 2, 3)
	if err := p.JoinGroup("trial", 1); err != nil {
		t.Fatal(err)
	}
	p.JoinGroup("trial", 3)
	if err := p.JoinGroup("trial", 99); err == nil {
		t.Fatal("unknown user joined group")
	}
	if !p.InGroup("trial", 1) || p.InGroup("trial", 2) {
		t.Fatal("membership wrong")
	}
	members := p.GroupMembers("trial")
	if len(members) != 2 || members[0] != 1 || members[1] != 3 {
		t.Fatalf("members = %v", members)
	}
	p.LeaveGroup("trial", 1)
	if p.InGroup("trial", 1) {
		t.Fatal("leave failed")
	}
	p.LeaveGroup("absent-group", 1) // no-op
	p.CreateGroup("empty")
	if got := p.GroupMembers("empty"); len(got) != 0 {
		t.Fatalf("empty group has members: %v", got)
	}
}

func TestSocialGraphExport(t *testing.T) {
	p := newPlatform(t, 1, 2, 3, 4)
	p.Connect(1, 2, Coauthor, 1)
	p.Connect(2, 3, Colleague, 1)
	g := p.SocialGraph()
	if g.NumNodes() != 4 || g.NumEdges() != 2 {
		t.Fatalf("graph = %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 3) || g.HasEdge(1, 3) {
		t.Fatal("graph edges wrong")
	}
	if !g.HasNode(4) {
		t.Fatal("isolated user missing")
	}
}

func TestGroupGraph(t *testing.T) {
	p := newPlatform(t, 1, 2, 3)
	p.Connect(1, 2, Coauthor, 1)
	p.Connect(2, 3, Coauthor, 1)
	p.JoinGroup("g", 1)
	p.JoinGroup("g", 2)
	g := p.GroupGraph("g")
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("group graph = %d/%d", g.NumNodes(), g.NumEdges())
	}
	if g.HasNode(3) {
		t.Fatal("non-member in group graph")
	}
}

func TestRelationshipTypeString(t *testing.T) {
	if Coauthor.String() != "coauthor" || ProjectPartner.String() != "project-partner" {
		t.Fatal("String() wrong")
	}
	if RelationshipType(99).String() != "relationship(99)" {
		t.Fatal("unknown type String() wrong")
	}
}

func TestAuthIssueValidate(t *testing.T) {
	a := NewAuthService(1)
	tok, err := a.Issue(7, 0, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	user, err := a.Validate(tok, 30*time.Minute)
	if err != nil || user != 7 {
		t.Fatalf("validate = %d, %v", user, err)
	}
	if _, err := a.Validate(tok, 2*time.Hour); err == nil {
		t.Fatal("expired token validated")
	}
	if _, err := a.Validate("bogus", 0); err == nil {
		t.Fatal("bogus token validated")
	}
	if _, err := a.Issue(7, 0, 0); err == nil {
		t.Fatal("zero ttl accepted")
	}
}

func TestAuthRevoke(t *testing.T) {
	a := NewAuthService(1)
	tok, _ := a.Issue(7, 0, time.Hour)
	if err := a.Revoke(tok); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Validate(tok, time.Minute); err == nil {
		t.Fatal("revoked token validated")
	}
	if err := a.Revoke("bogus"); err == nil {
		t.Fatal("revoking bogus token should error")
	}
}

func TestAuthActiveSessions(t *testing.T) {
	a := NewAuthService(1)
	t1, _ := a.Issue(1, 0, time.Hour)
	a.Issue(2, 0, 2*time.Hour)
	if n := a.ActiveSessions(30 * time.Minute); n != 2 {
		t.Fatalf("active = %d, want 2", n)
	}
	if n := a.ActiveSessions(90 * time.Minute); n != 1 {
		t.Fatalf("active = %d, want 1", n)
	}
	a.Revoke(t1)
	if n := a.ActiveSessions(time.Minute); n != 1 {
		t.Fatalf("active after revoke = %d, want 1", n)
	}
}

func TestAuthTokensUnique(t *testing.T) {
	a := NewAuthService(1)
	seen := make(map[Token]bool)
	for i := 0; i < 100; i++ {
		tok, err := a.Issue(UserID(i), 0, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if seen[tok] {
			t.Fatal("duplicate token issued")
		}
		seen[tok] = true
	}
}

// TestAuthPrunesExpiredSessions issues a login a second for 10,000
// seconds, each valid for one: the session map must stay bounded by the
// live sessions, not grow by one entry per Issue. A session that outlives
// the churn still validates, and a pruned one fails as unknown.
func TestAuthPrunesExpiredSessions(t *testing.T) {
	a := NewAuthService(1)
	keep, _ := a.Issue(1, 0, 24*time.Hour)
	first, _ := a.Issue(2, 0, time.Second)
	now := time.Duration(0)
	for i := 0; i < 10000; i++ {
		now += time.Second
		if _, err := a.Issue(3, now, time.Second); err != nil {
			t.Fatal(err)
		}
		if n, live := len(a.sessions), a.ActiveSessions(now); n > 2*live+1024 {
			t.Fatalf("after %d issues: %d sessions held for %d live", i+1, n, live)
		}
	}
	if u, err := a.Validate(keep, now); err != nil || u != 1 {
		t.Fatalf("live token after pruning = %d, %v", u, err)
	}
	if _, err := a.Validate(first, now); err == nil || err.Error() != "socialnet: unknown token" {
		t.Fatalf("pruned token = %v, want unknown", err)
	}
}
