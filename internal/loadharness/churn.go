package loadharness

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"scdn/internal/server"
	"scdn/internal/storage"
)

// Churn actions.
const (
	ChurnKill    = "kill"    // hard Crash: connections die mid-flight, no goodbye
	ChurnStop    = "stop"    // graceful Stop: drain, deregister, then close
	ChurnRestart = "restart" // Start the node again: fresh port, volume replayed from disk
)

// ChurnEvent is one scripted membership change.
type ChurnEvent struct {
	// At is the event's offset from the start of the churn run.
	At time.Duration
	// Action is ChurnKill, ChurnStop, or ChurnRestart.
	Action string
	// Node is the 1-based node ID the event targets.
	Node storage.NodeID
}

// ParseChurnScript reads a churn script: one event per line,
// "<offset> <action> <node>", e.g. "2s kill 3". Blank lines and
// #-comments are skipped.
func ParseChurnScript(r io.Reader) ([]ChurnEvent, error) {
	var ev []ChurnEvent
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 3 {
			return nil, fmt.Errorf("loadharness: churn script line %d: want \"<offset> <action> <node>\", got %q", line, text)
		}
		at, err := time.ParseDuration(fields[0])
		if err != nil || at < 0 {
			return nil, fmt.Errorf("loadharness: churn script line %d: bad offset %q", line, fields[0])
		}
		action := fields[1]
		if action != ChurnKill && action != ChurnStop && action != ChurnRestart {
			return nil, fmt.Errorf("loadharness: churn script line %d: unknown action %q", line, action)
		}
		node, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil || node < 1 {
			return nil, fmt.Errorf("loadharness: churn script line %d: bad node %q", line, fields[2])
		}
		ev = append(ev, ChurnEvent{At: at, Action: action, Node: node})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(ev, func(i, j int) bool { return ev[i].At < ev[j].At })
	return ev, nil
}

// ChurnSummary is a churn run's outcome.
type ChurnSummary struct {
	// Kills and Stops count applied take-down events; Restarts counts
	// applied start events (failed starts are not counted).
	Kills, Stops, Restarts int
	// Down is how many nodes are still down.
	Down int
	// Errs collects event application errors (failed restarts).
	Errs []string
}

// ChurnRun executes a churn schedule against a LocalCluster in the
// background.
type ChurnRun struct {
	lc   *server.LocalCluster
	done chan struct{}
	quit chan struct{}

	mu       sync.Mutex
	down     map[storage.NodeID]bool
	kills    int
	stops    int
	restarts int
	errs     []string
}

// StartChurn launches the schedule. Events with out-of-range node IDs
// are recorded as errors and skipped.
func StartChurn(lc *server.LocalCluster, events []ChurnEvent) *ChurnRun {
	c := &ChurnRun{
		lc:   lc,
		done: make(chan struct{}),
		quit: make(chan struct{}),
		down: make(map[storage.NodeID]bool),
	}
	go c.run(events)
	return c
}

func (c *ChurnRun) run(events []ChurnEvent) {
	defer close(c.done)
	start := time.Now()
	for _, ev := range events {
		wait := ev.At - time.Since(start)
		if wait > 0 {
			select {
			case <-c.quit:
				return
			case <-time.After(wait):
			}
		}
		c.apply(ev)
	}
}

func (c *ChurnRun) apply(ev ChurnEvent) {
	idx := int(ev.Node) - 1
	if idx < 0 || idx >= len(c.lc.Nodes) {
		c.note(fmt.Sprintf("churn: no node %d", ev.Node))
		return
	}
	node := c.lc.Nodes[idx]
	switch ev.Action {
	case ChurnKill:
		node.Crash()
		c.transition(func() { c.kills++; c.down[ev.Node] = true })
	case ChurnStop:
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err := node.Stop(ctx)
		cancel()
		if err != nil {
			c.note(fmt.Sprintf("churn: stop node %d: %v", ev.Node, err))
		}
		c.transition(func() { c.stops++; c.down[ev.Node] = true })
	case ChurnRestart:
		if err := node.Start(); err != nil {
			c.note(fmt.Sprintf("churn: restart node %d: %v", ev.Node, err))
			return
		}
		c.transition(func() { c.restarts++; delete(c.down, ev.Node) })
	}
}

func (c *ChurnRun) transition(f func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	f()
}

func (c *ChurnRun) note(msg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.errs = append(c.errs, msg)
}

// Wait blocks until the schedule has fully run.
func (c *ChurnRun) Wait() { <-c.done }

// Cancel abandons not-yet-applied events (nodes already taken down stay
// down) and waits for the runner to exit.
func (c *ChurnRun) Cancel() {
	select {
	case <-c.quit:
	default:
		close(c.quit)
	}
	<-c.done
}

// Summary snapshots the run's outcome.
func (c *ChurnRun) Summary() ChurnSummary {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ChurnSummary{
		Kills:    c.kills,
		Stops:    c.stops,
		Restarts: c.restarts,
		Down:     len(c.down),
		Errs:     append([]string(nil), c.errs...),
	}
}
