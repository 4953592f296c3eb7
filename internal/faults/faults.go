// Package faults generates seeded, deterministic fault plans for the
// simulated serving fleet: replica crash/restart schedules drawn from
// an exponential MTBF, per-replica straggler slowdowns, and KV-link
// degradation/partition windows for disaggregated deployments. A plan
// is computed entirely up front from a seed, so fault runs are
// reproducible byte-for-byte, and an empty plan is inert — routers
// treat it as an absent fault layer, so results are byte-identical to
// a fault-free run.
package faults

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/hw"
	"repro/internal/model"
)

// DefaultMaxRetries bounds how many times a crash-lost request is
// re-dispatched before it is dropped with a reason.
const DefaultMaxRetries = 3

// linkSlots is how many equal windows the horizon is divided into when
// drawing KV-link impairments.
const linkSlots = 8

// Config parameterizes a fault plan. The zero value is fault-free.
type Config struct {
	// Seed drives every random draw; a fixed seed gives a fixed plan.
	Seed int64
	// Horizon bounds fault activity in virtual seconds: no crash is
	// scheduled past it and link windows tile [0, Horizon]. Required
	// whenever MTBF or link impairments are enabled.
	Horizon float64

	// MTBF is each replica's mean time between failures in virtual
	// seconds (exponential inter-crash times); 0 disables crashes.
	MTBF float64
	// RestartDelay is the process-restart cost added to every crash's
	// downtime, on top of the weight-reload transfer time.
	RestartDelay float64
	// MaxCrashes caps the total crash count across the fleet (earliest
	// crashes win); 0 means unlimited within the horizon.
	MaxCrashes int
	// MaxRetries bounds re-dispatches per request before it is dropped;
	// 0 means DefaultMaxRetries.
	MaxRetries int

	// Stragglers marks this many replicas (chosen by the seed) as
	// stragglers whose pass durations stretch by StragglerFactor.
	Stragglers int
	// StragglerFactor is the slowdown multiplier (>1; e.g. 1.3 = 30%
	// slower). Ignored when Stragglers is 0.
	StragglerFactor float64

	// LinkDegradeFrac is the probability that each of the horizon's
	// link windows runs degraded (KV transfers stretched by
	// LinkDegradeFactor); LinkPartitionFrac the probability it is fully
	// partitioned (transfers stall until the window closes). Partition
	// wins when both are drawn. Only disaggregated KV hand-offs are
	// affected.
	LinkDegradeFrac   float64
	LinkDegradeFactor float64
	LinkPartitionFrac float64

	// CheckpointInterval, when > 0, enables periodic KV checkpointing
	// on every replica with this cadence (virtual seconds), so crash
	// recovery can resume from the checkpoint instead of re-prefilling.
	CheckpointInterval float64

	// Topology places the fleet's replicas into racks and zones for
	// correlated domain outages. Required when DomainMTBF > 0; its
	// Replicas field may be left 0 to adopt the fleet size passed to
	// NewPlan.
	Topology hw.Topology
	// DomainMTBF is each rack's mean time between correlated outage
	// events in virtual seconds (exponential inter-event gaps, the next
	// drawn after the previous outage ends); 0 disables domain outages.
	DomainMTBF float64
	// DomainKind selects what a domain outage does: DomainPower (every
	// member crashes together and restarts at the shared window end),
	// DomainNetwork (members keep serving but their KV links partition
	// for the window), or DomainMixed (each event draws one of the two
	// with equal probability). Empty means DomainPower.
	DomainKind string
	// ZoneFrac is the probability that a domain outage escalates from
	// its rack to the rack's whole zone (a power-feed or spine failure
	// instead of a ToR event); 0 keeps every event rack-scoped.
	ZoneFrac float64
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.Horizon < 0:
		return fmt.Errorf("faults: Horizon = %v", c.Horizon)
	case c.MTBF < 0:
		return fmt.Errorf("faults: MTBF = %v", c.MTBF)
	case c.MTBF > 0 && c.Horizon <= 0:
		return fmt.Errorf("faults: MTBF %v needs a positive Horizon", c.MTBF)
	case c.RestartDelay < 0:
		return fmt.Errorf("faults: RestartDelay = %v", c.RestartDelay)
	case c.MaxCrashes < 0:
		return fmt.Errorf("faults: MaxCrashes = %d", c.MaxCrashes)
	case c.MaxRetries < 0:
		return fmt.Errorf("faults: MaxRetries = %d", c.MaxRetries)
	case c.Stragglers < 0:
		return fmt.Errorf("faults: Stragglers = %d", c.Stragglers)
	case c.Stragglers > 0 && c.StragglerFactor <= 1:
		return fmt.Errorf("faults: StragglerFactor = %v (need > 1)", c.StragglerFactor)
	case c.LinkDegradeFrac < 0 || c.LinkDegradeFrac > 1:
		return fmt.Errorf("faults: LinkDegradeFrac = %v", c.LinkDegradeFrac)
	case c.LinkPartitionFrac < 0 || c.LinkPartitionFrac > 1:
		return fmt.Errorf("faults: LinkPartitionFrac = %v", c.LinkPartitionFrac)
	case c.LinkDegradeFrac+c.LinkPartitionFrac > 1:
		return fmt.Errorf("faults: link fractions sum to %v (> 1)", c.LinkDegradeFrac+c.LinkPartitionFrac)
	case c.LinkDegradeFrac > 0 && c.LinkDegradeFactor <= 1:
		return fmt.Errorf("faults: LinkDegradeFactor = %v (need > 1)", c.LinkDegradeFactor)
	case (c.LinkDegradeFrac > 0 || c.LinkPartitionFrac > 0) && c.Horizon <= 0:
		return fmt.Errorf("faults: link impairments need a positive Horizon")
	case c.CheckpointInterval < 0:
		return fmt.Errorf("faults: CheckpointInterval = %v", c.CheckpointInterval)
	case c.DomainMTBF < 0:
		return fmt.Errorf("faults: DomainMTBF = %v", c.DomainMTBF)
	case c.DomainMTBF > 0 && !c.Topology.Enabled():
		return fmt.Errorf("faults: DomainMTBF %v needs a topology (racks > 0)", c.DomainMTBF)
	case c.DomainMTBF > 0 && c.Horizon <= 0:
		return fmt.Errorf("faults: DomainMTBF %v needs a positive Horizon", c.DomainMTBF)
	case c.ZoneFrac < 0 || c.ZoneFrac > 1:
		return fmt.Errorf("faults: ZoneFrac = %v", c.ZoneFrac)
	}
	switch c.DomainKind {
	case "", DomainPower, DomainNetwork, DomainMixed:
	default:
		return fmt.Errorf("faults: DomainKind %q (want %q, %q or %q)",
			c.DomainKind, DomainPower, DomainNetwork, DomainMixed)
	}
	if c.Topology.Enabled() && c.Topology.Replicas > 0 {
		if err := c.Topology.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Enabled reports whether the configuration injects anything at all.
func (c Config) Enabled() bool {
	return c.MTBF > 0 || c.Stragglers > 0 ||
		c.LinkDegradeFrac > 0 || c.LinkPartitionFrac > 0 ||
		c.CheckpointInterval > 0 || c.DomainMTBF > 0
}

// Crash is one scheduled replica failure: the replica dies at At and
// its GPUs come back (weights reloaded) at RestartAt.
type Crash struct {
	Replica   int
	At        float64
	RestartAt float64
}

// Window is one KV-link impairment interval. Factor > 1 stretches
// transfer time spent inside the window; Factor == 0 is a full
// partition (no progress until End).
type Window struct {
	Start, End float64
	Factor     float64
}

// Plan is a fully materialized fault schedule for one fleet run. A nil
// *Plan is valid everywhere and means "no faults".
type Plan struct {
	Config   Config
	Replicas int
	// Downtime is each crash's total outage: RestartDelay plus the
	// weight-reload transfer time (recorded for reports).
	Downtime float64
	// Crashes is the fleet-wide schedule, ordered by (At, Replica).
	Crashes []Crash
	// Slowdowns[i] is replica i's pass-duration multiplier (0 =
	// nominal).
	Slowdowns []float64
	// Links are the fleet-shared KV-link impairment windows, ordered
	// and disjoint.
	Links []Window
	// Domains are the correlated outage events drawn from the
	// topology, ordered by (Start, Rack). Power events are already
	// materialized into Crashes (members merged window-by-window);
	// network events into ReplicaLinks.
	Domains []DomainOutage
	// ReplicaLinks[i], when non-nil, replaces Links for transfers
	// sourced from replica i: its rack's network-outage partitions
	// merged over the shared timeline. Nil entries use Links.
	ReplicaLinks [][]Window
}

// NewPlan draws a deterministic plan from cfg.Seed for a fleet of
// replicas whose per-crash outage lasts downtime seconds (use
// cfg.RestartDelay + WeightReloadTime(...)). Per replica, inter-crash
// gaps are exponential with mean MTBF and the next failure is drawn
// only after the previous restart, so one replica's outages never
// overlap.
func NewPlan(cfg Config, replicas int, downtime float64) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if replicas <= 0 {
		return nil, fmt.Errorf("faults: replicas = %d", replicas)
	}
	if downtime < 0 {
		return nil, fmt.Errorf("faults: downtime = %v", downtime)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &Plan{Config: cfg, Replicas: replicas, Downtime: downtime}
	if cfg.MTBF > 0 {
		for i := 0; i < replicas; i++ {
			t := rng.ExpFloat64() * cfg.MTBF
			for t < cfg.Horizon {
				c := Crash{Replica: i, At: t, RestartAt: t + downtime}
				p.Crashes = append(p.Crashes, c)
				t = c.RestartAt + rng.ExpFloat64()*cfg.MTBF
			}
		}
		sort.Slice(p.Crashes, func(a, b int) bool {
			if p.Crashes[a].At != p.Crashes[b].At {
				return p.Crashes[a].At < p.Crashes[b].At
			}
			return p.Crashes[a].Replica < p.Crashes[b].Replica
		})
		if cfg.MaxCrashes > 0 && len(p.Crashes) > cfg.MaxCrashes {
			p.Crashes = p.Crashes[:cfg.MaxCrashes]
		}
	}
	if cfg.Stragglers > 0 {
		p.Slowdowns = make([]float64, replicas)
		n := cfg.Stragglers
		if n > replicas {
			n = replicas
		}
		for _, i := range rng.Perm(replicas)[:n] {
			p.Slowdowns[i] = cfg.StragglerFactor
		}
	}
	if cfg.LinkDegradeFrac > 0 || cfg.LinkPartitionFrac > 0 {
		slot := cfg.Horizon / linkSlots
		for s := 0; s < linkSlots; s++ {
			u := rng.Float64()
			w := Window{Start: float64(s) * slot, End: float64(s+1) * slot}
			switch {
			case u < cfg.LinkPartitionFrac:
				w.Factor = 0
				p.Links = append(p.Links, w)
			case u < cfg.LinkPartitionFrac+cfg.LinkDegradeFrac:
				w.Factor = cfg.LinkDegradeFactor
				p.Links = append(p.Links, w)
			}
		}
	}
	if cfg.DomainMTBF > 0 {
		if err := p.drawDomains(rng, downtime); err != nil {
			return nil, err
		}
	}
	if err := Validate(p); err != nil {
		return nil, fmt.Errorf("faults: generated plan failed validation: %w", err)
	}
	return p, nil
}

// Active reports whether the plan injects anything — false for nil
// plans, which routers treat as an absent fault layer.
func (p *Plan) Active() bool {
	if p == nil {
		return false
	}
	if len(p.Crashes) > 0 || len(p.Links) > 0 || len(p.Domains) > 0 ||
		p.Config.CheckpointInterval > 0 {
		return true
	}
	for _, f := range p.Slowdowns {
		if f > 0 {
			return true
		}
	}
	return false
}

// SlowdownFor returns replica i's pass-duration multiplier (0 =
// nominal), nil-safe.
func (p *Plan) SlowdownFor(i int) float64 {
	if p == nil || i < 0 || i >= len(p.Slowdowns) {
		return 0
	}
	return p.Slowdowns[i]
}

// MaxRetries returns the per-request re-dispatch budget, nil-safe.
func (p *Plan) MaxRetries() int {
	if p == nil || p.Config.MaxRetries <= 0 {
		return DefaultMaxRetries
	}
	return p.Config.MaxRetries
}

// TransferDone maps a KV transfer starting at start with nominal
// duration dur onto the shared impaired link timeline and returns its
// completion instant: inside a degrade window progress runs Factor
// times slower, inside a partition it stops entirely until the window
// closes, and outside windows it runs at nominal rate. With no link
// windows (or a nil plan) this is exactly start + dur.
//
// Windows are half-open [Start, End): a window impairs only work
// strictly inside it, so boundary instants are pinned — a transfer
// whose remaining work runs out exactly at a window's Start completes
// at that Start untouched by the window, and a transfer that exactly
// exhausts a degrade window's capacity completes at that window's End
// even when a partition abuts it at the same instant (the abutting
// window never extends it). Completion lands on the shared boundary
// exactly, not a floating-point neighbour of it.
func (p *Plan) TransferDone(start, dur float64) float64 {
	if p == nil {
		return start + dur
	}
	return transferDone(p.Links, start, dur)
}

// TransferDoneFrom is TransferDone on the timeline seen by transfers
// sourced from the given replica: a replica whose rack is inside a
// network domain outage sees those partition windows merged over the
// shared timeline. Replica -1 — or any replica without domain
// impairments — uses the shared timeline.
func (p *Plan) TransferDoneFrom(replica int, start, dur float64) float64 {
	if p == nil {
		return start + dur
	}
	wins := p.Links
	if replica >= 0 && replica < len(p.ReplicaLinks) && p.ReplicaLinks[replica] != nil {
		wins = p.ReplicaLinks[replica]
	}
	return transferDone(wins, start, dur)
}

// PartitionedAt reports whether the replica's KV links sit inside a
// network domain outage at instant t — replica-scoped partition
// windows only, half-open [Start, End). Routers use it to skip import
// targets that cannot receive KV right now; the shared link timeline
// governs transfer durations instead and is not consulted here.
func (p *Plan) PartitionedAt(replica int, t float64) bool {
	if p == nil || replica < 0 || replica >= len(p.ReplicaLinks) {
		return false
	}
	for _, w := range p.ReplicaLinks[replica] {
		if w.Start > t {
			return false
		}
		if t < w.End && w.Factor == 0 {
			return true
		}
	}
	return false
}

// PartitionLiftsAt returns the instant the partition covering t on the
// replica's links ends — the earliest moment the replica can receive
// KV again — or t itself when no partition is active. Routers use it
// to schedule placement retries instead of stranding work behind a
// network domain outage.
func (p *Plan) PartitionLiftsAt(replica int, t float64) float64 {
	if p == nil || replica < 0 || replica >= len(p.ReplicaLinks) {
		return t
	}
	for _, w := range p.ReplicaLinks[replica] {
		if w.Start > t {
			return t
		}
		if t < w.End && w.Factor == 0 {
			return w.End
		}
	}
	return t
}

// transferDone walks an ordered disjoint window timeline (see
// TransferDone for the boundary contract).
func transferDone(wins []Window, start, dur float64) float64 {
	if len(wins) == 0 || dur <= 0 {
		return start + dur
	}
	t, rem := start, dur
	for _, w := range wins {
		if w.End <= t {
			continue
		}
		if w.Start > t {
			gap := w.Start - t
			if rem <= gap {
				// Done strictly before (or exactly at) the window's
				// Start: the window does not apply.
				return t + rem
			}
			rem -= gap
			t = w.Start
		}
		if w.Factor == 0 {
			// Partitioned: no progress until the window closes.
			t = w.End
			continue
		}
		capacity := (w.End - t) / w.Factor
		if rem < capacity {
			return t + rem*w.Factor
		}
		rem -= capacity
		t = w.End
		if rem <= 0 {
			// Exhausted exactly at the window's End: complete on the
			// boundary; an abutting window (even a partition starting
			// at this instant) never extends the transfer.
			return t
		}
	}
	return t + rem
}

// WeightReloadTime models re-loading a crashed replica's weights: the
// pipeline's stages reload in parallel over independent host links, so
// the largest stage bounds the outage. Returns 0 when the model cannot
// be partitioned (the engine would have rejected the config anyway).
func WeightReloadTime(node hw.Node, spec model.Spec, world int) float64 {
	plan, err := model.Partition(spec, world)
	if err != nil {
		return 0
	}
	var max float64
	for st := range plan.Stages {
		if b := plan.StageWeightBytes(st); b > max {
			max = b
		}
	}
	return node.P2PTime(max)
}
