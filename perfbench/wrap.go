package main

import (
	"sync/atomic"
	"time"

	"netbatch/internal/core"
	"netbatch/internal/experiments"
	"netbatch/internal/job"
	"netbatch/internal/sched"
	"netbatch/internal/sim"
)

// callStats accumulates the traced pass's calls into the sched and core
// layers. Engines call schedulers and policies from several goroutines
// (matrix workers, optimistic shards), hence the atomics.
type callStats struct {
	selectCalls, selectNS      atomic.Int64
	decisions, decideNS, moves atomic.Int64
}

// timedSched forwards an InitialScheduler, timing SelectPool.
type timedSched struct {
	inner sched.InitialScheduler
	st    *callStats
}

func (s *timedSched) Name() string { return s.inner.Name() }

func (s *timedSched) SelectPool(now float64, spec *job.Spec, view sched.PoolView) (int, error) {
	t := time.Now()
	pool, err := s.inner.SelectPool(now, spec, view)
	s.st.selectNS.Add(int64(time.Since(t)))
	s.st.selectCalls.Add(1)
	return pool, err
}

// timedPolicy forwards a Policy, timing and counting its decisions.
type timedPolicy struct {
	inner core.Policy
	st    *callStats
}

func (p *timedPolicy) Name() string           { return p.inner.Name() }
func (p *timedPolicy) WaitThreshold() float64 { return p.inner.WaitThreshold() }

func (p *timedPolicy) OnSuspend(now float64, j *job.Job, view sched.PoolView) (int, bool) {
	return p.decide(func() (int, bool) { return p.inner.OnSuspend(now, j, view) })
}

func (p *timedPolicy) OnWaitTimeout(now float64, j *job.Job, view sched.PoolView) (int, bool) {
	return p.decide(func() (int, bool) { return p.inner.OnWaitTimeout(now, j, view) })
}

func (p *timedPolicy) decide(call func() (int, bool)) (int, bool) {
	t := time.Now()
	pool, move := call()
	p.st.decideNS.Add(int64(time.Since(t)))
	p.st.decisions.Add(1)
	if move {
		p.st.moves.Add(1)
	}
	return pool, move
}

// wrapSched times s, keeping its checkpoint state contract: the engine
// snapshots a scheduler's state only when it implements sim.Stateful.
func wrapSched(s sched.InitialScheduler, st *callStats) sched.InitialScheduler {
	t := &timedSched{inner: s, st: st}
	if sf, ok := s.(sim.Stateful); ok {
		return struct {
			*timedSched
			sim.Stateful
		}{t, sf}
	}
	return t
}

// wrapPolicy times p, keeping the optional interfaces the engine reads
// from a policy: sim.Stateful for checkpoints and core.Migrator for
// progress-preserving moves.
func wrapPolicy(p core.Policy, st *callStats) core.Policy {
	t := &timedPolicy{inner: p, st: st}
	sf, stateful := p.(sim.Stateful)
	mg, migrator := p.(core.Migrator)
	switch {
	case stateful && migrator:
		return struct {
			*timedPolicy
			sim.Stateful
			core.Migrator
		}{t, sf, mg}
	case stateful:
		return struct {
			*timedPolicy
			sim.Stateful
		}{t, sf}
	case migrator:
		return struct {
			*timedPolicy
			core.Migrator
		}{t, mg}
	}
	return t
}

// wrapMatrix installs the timing wrappers on every cell of m: the
// matrix builds a fresh scheduler and policy per cell through these
// factories.
func wrapMatrix(m *experiments.Matrix, st *callStats) {
	for i := range m.Scenarios {
		newInitial := m.Scenarios[i].NewInitial
		m.Scenarios[i].NewInitial = func() sched.InitialScheduler { return wrapSched(newInitial(), st) }
	}
	for i := range m.Policies {
		newPolicy := m.Policies[i].New
		m.Policies[i].New = func(seed uint64) core.Policy { return wrapPolicy(newPolicy(seed), st) }
	}
}
