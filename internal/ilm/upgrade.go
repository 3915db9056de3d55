package ilm

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"pie/api"
)

// Version pins and rolling upgrades. A pin fixes what a bare program name
// resolves to — without one, bare-name launches float to the highest
// registered version, so registering v2 instantly cuts new traffic over.
// With a pin, the fleet controller owns the cutover: it repins, then
// drains old-version instances in bounded batches, aborting stragglers
// with errUpgradeRestart so they requeue onto the pinned version with the
// client's handle (done future, mailboxes) held open — at-least-once
// execution across the version boundary.

// errUpgradeRestart marks an instance killed to restart it on the pinned
// version. finishAttempt requeues it unconditionally — the restart is an
// operator action, not a failure, so it neither consumes retry budget nor
// counts as an abort.
var errUpgradeRestart = errors.New("ilm: instance restarted for version upgrade")

// upgradeRequeueDelay spaces the relaunch of an upgrade-restarted
// instance (tear-down bookkeeping, not backoff).
const upgradeRequeueDelay = 100 * time.Microsecond

// SetPin fixes what bare-name launches of program name resolve to. The
// version must already be registered — pinning ahead of deployment fails
// typed api.ErrNoSuchProgram (callers retry once the artifact lands).
func (m *ILM) SetPin(name, version string) error {
	v, err := CanonicalVersion(version)
	if err != nil {
		return fmt.Errorf("%w: cannot pin %q: %v", api.ErrNoSuchProgram, name, err)
	}
	if _, ok := m.programs[name][v]; !ok {
		return fmt.Errorf("%w: cannot pin %q to unregistered version %q", api.ErrNoSuchProgram, name, v)
	}
	if m.pins == nil {
		m.pins = make(map[string]string)
	}
	m.pins[name] = v
	return nil
}

// ClearPin removes a pin; bare-name launches float to the highest
// registered version again.
func (m *ILM) ClearPin(name string) { delete(m.pins, name) }

// Pinned reports the pinned version of a program, if any.
func (m *ILM) Pinned(name string) (string, bool) {
	v, ok := m.pins[name]
	return v, ok
}

// RunningHandles lists the live handles of a program, sorted by handle ID
// (launch order) — the deterministic iteration surface the fleet
// controller batches rolling upgrades over. A handle is live from the
// instant its instance registers until its attempt finishes; handles
// between retry attempts are not listed (they re-resolve on relaunch and
// pick the pinned version up on their own).
func (m *ILM) RunningHandles(program string) []*Handle {
	ids := make([]uint64, 0, len(m.running))
	for id, h := range m.running {
		if h.Program == program {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]*Handle, len(ids))
	for i, id := range ids {
		out[i] = m.running[id]
	}
	return out
}

// RequeueForUpgrade restarts a running handle onto the currently pinned
// version of its program: the handle's next attempt resolves the pin, and
// the instance is aborted with the upgrade sentinel so finishAttempt
// requeues instead of resolving the client's handle. Reports whether a
// restart was initiated; a handle already on the pinned version (or
// already finished) is left alone.
func (m *ILM) RequeueForUpgrade(h *Handle) bool {
	target, err := m.resolve(h.Program)
	if err != nil || target == h.entry {
		return false
	}
	if h.done.Done() || h.ctl == nil {
		return false
	}
	h.entry = target
	return h.ctl.AbortInstance(h.inst, errUpgradeRestart)
}

// ArtifactFor resolves a program reference to its artifact cache key and
// binary size — the fleet controller prewarms upgrade targets with it.
func (m *ILM) ArtifactFor(ref string) (key string, size int, err error) {
	e, err := m.resolve(ref)
	if err != nil {
		return "", 0, err
	}
	return e.ref(), e.prog.BinarySize, nil
}
