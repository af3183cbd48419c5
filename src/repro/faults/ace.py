"""ACE-window tracking: the AVF model's one definition of ACE time.

The AVF model (equations (1)–(3)) weighs each block by its **ACE time**:
a particle strike matters only if it lands between a write (or an
earlier read) and the *next read* of the block — the read-gap
accumulation.  The live profiler oracle
(:class:`~repro.profile.profiler.Profiler`) feeds :class:`AceTracker`
every touch it attributes to a block and reads the totals into
``BlockStats``.  :func:`repro.profile.profile_program` applies the
same rule to batches of recorded rows (:mod:`repro.profile.columns`);
tests hold its profile equal to the oracle's.
"""

from __future__ import annotations


class AceTracker:
    """Accumulates per-block ACE cycles from touch timestamps.

    The caller reports each touch with :meth:`record`: the block name,
    the current cycle, and whether the touch is a write.  A read ends
    the open vulnerability window and banks the gap since the previous
    touch; a write (re)opens the window without banking.  At
    end-of-simulation, :meth:`finish` closes windows still opened by a
    write: data written and never read back survives in memory until
    halt, so a strike anywhere in that tail interval corrupts
    architecturally visible state.  Without the closure the last write
    before halt would be silently dropped from :attr:`ace_cycles`.
    """

    def __init__(self):
        self.ace_cycles = {}  # block name -> accumulated ACE cycles
        self._last_touch = {}  # block name -> cycle of the latest touch
        self._open_write = {}  # block name -> last touch was a write

    def record(self, name, now, is_write):
        """Account one touch of ``name`` at cycle ``now``."""
        last = self._last_touch.get(name)
        if not is_write and last is not None:
            self.ace_cycles[name] = (
                self.ace_cycles.get(name, 0) + now - last)
        self._last_touch[name] = now
        self._open_write[name] = is_write

    def finish(self, now):
        """Close write-opened windows at end-of-simulation cycle ``now``.

        Idempotent: closed windows are marked so a second ``finish``
        (or a later read replay) does not double-count the tail.
        """
        for name, was_write in self._open_write.items():
            if not was_write:
                continue
            last = self._last_touch.get(name)
            if last is not None and now > last:
                self.ace_cycles[name] = (
                    self.ace_cycles.get(name, 0) + now - last)
                self._last_touch[name] = now
            self._open_write[name] = False
