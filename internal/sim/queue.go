package sim

import (
	"netbatch/internal/job"
)

// jobList is an intrusive FIFO of job records, threaded through
// jobRT.prev/next. A job sits in at most one pool list at a time — a
// wait-queue class while it waits, its pool's running list while it
// runs — so one pair of link fields serves every list, and unlinking
// is O(1).
type jobList struct {
	head, tail *jobRT
	n          int
}

// push appends rt at the tail.
func (l *jobList) push(rt *jobRT) {
	rt.prev, rt.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = rt
	} else {
		l.head = rt
	}
	l.tail = rt
	l.n++
}

// remove unlinks rt, which must be in the list.
func (l *jobList) remove(rt *jobRT) {
	if rt.prev != nil {
		rt.prev.next = rt.next
	} else {
		l.head = rt.next
	}
	if rt.next != nil {
		rt.next.prev = rt.prev
	} else {
		l.tail = rt.prev
	}
	rt.prev, rt.next = nil, nil
	l.n--
}

// prioList is the list of one priority class.
type prioList struct {
	prio job.Priority
	jobList
}

// byPrio holds one list per priority seen, highest priority first.
// Classes stay once created (empty or not), so the layout is a pure
// function of the operations applied, which keeps snapshots of equal
// states byte-identical.
type byPrio []prioList

// list returns the class list for p, creating it in order if absent.
// The pointer is valid until the next class insertion.
func (b *byPrio) list(p job.Priority) *jobList {
	i := 0
	for i < len(*b) && (*b)[i].prio > p {
		i++
	}
	if i == len(*b) || (*b)[i].prio != p {
		*b = append(*b, prioList{})
		copy((*b)[i+1:], (*b)[i:])
		(*b)[i] = prioList{prio: p}
	}
	return &(*b)[i].jobList
}

// waitQueue is a physical pool's wait queue: strict priority order
// between classes, FIFO within a class. A job waits in exactly one
// pool's queue; removal unlinks it at once.
type waitQueue struct {
	classes byPrio
}

// fitScanLimit bounds how deep the dispatcher looks past the queue head
// for a job that fits a specific machine. A small window avoids
// head-of-line blocking by memory-hungry jobs without turning every
// dispatch into a full queue scan.
const fitScanLimit = 64

func newWaitQueue() *waitQueue { return &waitQueue{} }

// Len returns the number of queued jobs.
func (w *waitQueue) Len() int {
	n := 0
	for i := range w.classes {
		n += w.classes[i].n
	}
	return n
}

// push appends the job to its priority class.
func (w *waitQueue) push(rt *jobRT) {
	w.classes.list(rt.j.Spec.Priority).push(rt)
	rt.queued = true
}

// remove unlinks a queued job; a job not queued is left alone.
func (w *waitQueue) remove(rt *jobRT) {
	if !rt.queued {
		return
	}
	rt.queued = false
	w.classes.list(rt.j.Spec.Priority).remove(rt)
}

// peekFitting returns the highest-priority, oldest job that fits the
// machine, scanning at most fitScanLimit jobs per priority class. It
// does not remove the job.
func (w *waitQueue) peekFitting(fits func(*jobRT) bool) *jobRT {
	for i := range w.classes {
		scanned := 0
		for rt := w.classes[i].head; rt != nil && scanned < fitScanLimit; rt = rt.next {
			scanned++
			if fits(rt) {
				return rt
			}
		}
	}
	return nil
}

// topPriority returns the priority of the highest non-empty class, or
// 0 if the queue is empty.
func (w *waitQueue) topPriority() job.Priority {
	for i := range w.classes {
		if w.classes[i].n > 0 {
			return w.classes[i].prio
		}
	}
	return 0
}
