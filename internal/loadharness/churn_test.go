package loadharness

import (
	"context"
	"strings"
	"testing"
	"time"

	"scdn/internal/server"
)

func TestParseChurnScript(t *testing.T) {
	script := `
# take node 2 down hard, node 3 politely, bring both back
2s kill 2
7s restart 2

3s stop 3
9s restart 3
`
	ev, err := ParseChurnScript(strings.NewReader(script))
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 4 {
		t.Fatalf("events = %d, want 4", len(ev))
	}
	// Sorted by offset regardless of line order.
	want := []ChurnEvent{
		{At: 2 * time.Second, Action: ChurnKill, Node: 2},
		{At: 3 * time.Second, Action: ChurnStop, Node: 3},
		{At: 7 * time.Second, Action: ChurnRestart, Node: 2},
		{At: 9 * time.Second, Action: ChurnRestart, Node: 3},
	}
	for i := range want {
		if ev[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, ev[i], want[i])
		}
	}

	for _, bad := range []string{
		"2s kill",      // missing node
		"2s reboot 1",  // unknown action
		"2s kill zero", // non-numeric node
		"2s kill 0",    // node IDs are 1-based
		"soon kill 1",  // bad offset
	} {
		if _, err := ParseChurnScript(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseChurnScript(%q) accepted, want error", bad)
		}
	}
}

// churnCluster starts a small in-process cluster for ChurnRun tests.
// The sweepers are off: these tests check the runner's bookkeeping, not
// repair.
func churnCluster(t *testing.T) *server.LocalCluster {
	t.Helper()
	lc, err := server.StartLocalCluster(server.ClusterConfig{Nodes: 3, Users: 1, Datasets: 1,
		Sweep: server.SweeperConfig{Disabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = lc.Shutdown(ctx)
	})
	return lc
}

func TestChurnRunSummary(t *testing.T) {
	lc := churnCluster(t)
	run := StartChurn(lc, []ChurnEvent{
		{At: 0, Action: ChurnKill, Node: 2},
		{At: 10 * time.Millisecond, Action: ChurnStop, Node: 3},
		{At: 20 * time.Millisecond, Action: ChurnRestart, Node: 2},
		{At: 30 * time.Millisecond, Action: ChurnRestart, Node: 3},
	})
	run.Wait()
	sum := run.Summary()
	if sum.Kills != 1 || sum.Stops != 1 || sum.Restarts != 2 || sum.Down != 0 || len(sum.Errs) != 0 {
		t.Fatalf("summary = %+v, want 1 kill, 1 stop, 2 restarts, none down", sum)
	}
	for i, n := range lc.Nodes {
		if !n.Running() {
			t.Fatalf("node %d down after its restart", i+1)
		}
	}
}

func TestChurnRunNeverRestart(t *testing.T) {
	lc := churnCluster(t)
	run := StartChurn(lc, []ChurnEvent{{At: time.Millisecond, Action: ChurnKill, Node: 2}})
	run.Wait()
	sum := run.Summary()
	if sum.Kills != 1 || sum.Restarts != 0 || sum.Down != 1 {
		t.Fatalf("summary = %+v, want 1 kill, 1 down", sum)
	}
}

func TestChurnRunCancelLeavesDownedNodesDown(t *testing.T) {
	lc := churnCluster(t)
	run := StartChurn(lc, []ChurnEvent{
		{At: 0, Action: ChurnKill, Node: 2},
		{At: time.Hour, Action: ChurnRestart, Node: 2},
	})
	for deadline := time.Now().Add(5 * time.Second); run.Summary().Kills == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("kill never applied")
		}
	}
	run.Cancel()
	sum := run.Summary()
	if sum.Restarts != 0 || sum.Down != 1 {
		t.Fatalf("summary after Cancel = %+v, want the victim still down", sum)
	}
	if lc.Nodes[1].Running() {
		t.Fatal("Cancel restarted a downed node")
	}
}

func TestChurnRunOutOfRangeNode(t *testing.T) {
	lc := churnCluster(t)
	run := StartChurn(lc, []ChurnEvent{{At: 0, Action: ChurnKill, Node: 9}})
	run.Wait()
	sum := run.Summary()
	if len(sum.Errs) != 1 || !strings.Contains(sum.Errs[0], "no node 9") || sum.Kills != 0 {
		t.Fatalf("summary = %+v, want one error naming node 9 and no kill", sum)
	}
}
