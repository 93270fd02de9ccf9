package loadharness

import (
	"context"
	"strings"
	"testing"
	"time"

	"scdn/internal/server"
)

func TestParseChurnSpec(t *testing.T) {
	spec, err := ParseChurnSpec("kill=2,restart=5s")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kills != 2 || spec.Restart != 5*time.Second || spec.Spacing != 2*time.Second {
		t.Fatalf("spec = %+v", spec)
	}

	spec, err = ParseChurnSpec("kill=1,restart=never,spacing=500ms")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Restart >= 0 {
		t.Fatalf("restart=never should be negative, got %v", spec.Restart)
	}
	if spec.Spacing != 500*time.Millisecond {
		t.Fatalf("spacing = %v", spec.Spacing)
	}

	for _, bad := range []string{
		"",                 // empty
		"kill=0",           // non-positive count
		"restart=5s",       // kill missing
		"kill=2,nope=3",    // unknown key (typos must not run a different experiment)
		"kill=2,restart",   // not key=value
		"kill=2,spacing=0", // non-positive spacing
	} {
		if _, err := ParseChurnSpec(bad); err == nil {
			t.Errorf("ParseChurnSpec(%q) accepted, want error", bad)
		}
	}
}

func TestChurnSpecEvents(t *testing.T) {
	// More kills than the cluster can lose: capped at nodes-1 so a
	// survivor always remains to repair around the dead.
	ev := ChurnSpec{Kills: 10, Restart: time.Second, Spacing: time.Second}.Events(3, 42)
	kills, restarts := 0, 0
	victims := map[int64]bool{}
	for _, e := range ev {
		switch e.Action {
		case ChurnKill:
			kills++
			if victims[int64(e.Node)] {
				t.Fatalf("node %d killed twice", e.Node)
			}
			victims[int64(e.Node)] = true
		case ChurnRestart:
			restarts++
		}
	}
	if kills != 2 || restarts != 2 {
		t.Fatalf("kills=%d restarts=%d, want 2/2 (capped at nodes-1)", kills, restarts)
	}
	for i := 1; i < len(ev); i++ {
		if ev[i].At < ev[i-1].At {
			t.Fatal("events not sorted by offset")
		}
	}

	// Same seed, same schedule: churn runs must be reproducible.
	again := ChurnSpec{Kills: 10, Restart: time.Second, Spacing: time.Second}.Events(3, 42)
	if len(again) != len(ev) {
		t.Fatal("schedule not deterministic")
	}
	for i := range ev {
		if ev[i] != again[i] {
			t.Fatalf("event %d differs across runs: %+v vs %+v", i, ev[i], again[i])
		}
	}

	if got := (ChurnSpec{Kills: 0}).Events(3, 1); got != nil {
		t.Fatalf("zero kills should produce no events, got %v", got)
	}

	// restart=never leaves victims down.
	for _, e := range (ChurnSpec{Kills: 1, Restart: -1, Spacing: time.Second}).Events(3, 1) {
		if e.Action == ChurnRestart {
			t.Fatal("restart=never schedule contains a restart")
		}
	}
}

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
	if sum.Kills != 1 || sum.Stops != 1 || sum.Restarts != 2 || sum.Down != 0 || !sum.AllRestarted || len(sum.Errs) != 0 {
		t.Fatalf("summary = %+v, want 1 kill, 1 stop, 2 restarts, none down, all restarted", sum)
	}
	for i, n := range lc.Nodes {
		if !n.Running() {
			t.Fatalf("node %d down after its restart", i+1)
		}
	}
}

func TestChurnRunNeverRestart(t *testing.T) {
	lc := churnCluster(t)
	events := ChurnSpec{Kills: 1, Restart: -1, Spacing: time.Millisecond}.Events(len(lc.Nodes), 1)
	run := StartChurn(lc, events)
	run.Wait()
	sum := run.Summary()
	if sum.Kills != 1 || sum.Restarts != 0 || sum.Down != 1 || sum.AllRestarted {
		t.Fatalf("summary = %+v, want 1 kill, 1 down, not all restarted", sum)
	}
	// A member still down explains failures however long ago it died.
	if !run.Active(0) {
		t.Fatal("Active(0) = false with a member down")
	}
}

func TestChurnRunActive(t *testing.T) {
	lc := churnCluster(t)
	run := StartChurn(lc, []ChurnEvent{
		{At: 0, Action: ChurnKill, Node: 2},
		{At: time.Millisecond, Action: ChurnRestart, Node: 2},
	})
	run.Wait()
	if !run.Active(time.Hour) {
		t.Fatal("Active = false inside the grace window after a transition")
	}
	if run.Active(0) {
		t.Fatal("Active = true outside the grace window, schedule done, nobody down")
	}

	// A schedule still running explains failures before its first event.
	pending := StartChurn(lc, []ChurnEvent{{At: time.Hour, Action: ChurnKill, Node: 3}})
	defer pending.Cancel()
	if !pending.Active(0) {
		t.Fatal("Active = false while the schedule is still running")
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
	if sum.Restarts != 0 || sum.Down != 1 || sum.AllRestarted {
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
