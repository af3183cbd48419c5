"""Column profiling: Table I's per-block statistics without event objects.

:func:`~repro.profile.profiler.profile_program` puts one
:class:`ProfileRecorder` in the machine's event-bus recorder slot and
runs the program.  No subscriber is attached and no event object is
built, so the fast engine stays in its batched mode.  The recorder
appends three kinds of rows to ``array`` columns:

* one **block row** per executed basic block: start pc, instruction
  count, the cycle of its first fetch, the cycle of its last fetch, and
  the lowest stack pointer seen at a fetch.  The engine ends basic
  blocks at ``.func`` starts and ends, so a row lies inside one code
  block or outside all of them.  Wherever instructions are fetched one
  at a time (the engine's granular loop, the reference step loop,
  fetch routes other than the cache), the bus hands each fetch over as
  a one-instruction row;
* one **data row** per data access: address, is-write, issue cycle;
* one **call row** per executed ``bl``: its target.

Every :data:`FOLD_ROWS` rows of one kind, NumPy folds the batch into
running per-block totals and the column starts empty again, so memory
stays O(blocks) whatever the run length.

The rows carry everything the live
:class:`~repro.profile.profiler.Profiler` (kept as the oracle) reads
from the event stream:

* code blocks are only ever fetched, so the ACE read-gap sum of
  :class:`~repro.faults.ace.AceTracker` telescopes: a code block's ACE
  time is its last fetch cycle minus its first;
* a code block's reads, references (runs of rows in one block), first
  and last touch, and active cycles follow from its rows' counts and
  cycles;
* stack depth is ``stack_top - sp``, deepest at the lowest stack
  pointer, which the engine tracks per instruction only in blocks that
  move the stack pointer before their last instruction;
* data blocks replay the oracle's per-access rules exactly, with the
  rows sorted by block to find each touch's predecessor.
"""

from __future__ import annotations

from array import array

from ..events import EventKind
from ..isa.registers import SP
from .blocks import BlockKind

#: rows of one kind held before they are folded into the totals
FOLD_ROWS = 8192

# first-touch cycle of a block never touched (and the lowest stack
# pointer of a block never fetched)
_NEVER = (1 << 63) - 1

_BLOCK_FIELDS = 5  # start pc, count, first cycle, last cycle, lowest SP
_DATA_FIELDS = 3  # address, is-write, issue cycle


class ProfileRecorder:
    """Bus recorder turning one run's rows into per-block statistics.

    ``blocks`` is the program's :func:`~repro.profile.blocks.enumerate_blocks`
    list and ``stack_top`` the initial stack pointer.  After the run,
    :meth:`finish` returns each block's :class:`BlockStats` fields.
    """

    def __init__(self, blocks, stack_top):
        self._stack_top = stack_top
        self._code = _Family([b for b in blocks if b.kind is BlockKind.CODE])
        self._data = _Family([b for b in blocks if b.kind.is_data_like])
        self._stack = next(
            (index for index, block in enumerate(self._data.blocks)
             if block.kind is BlockKind.STACK), None)
        self._stack_low = None
        self._registers = None
        self._block_rows = array("q")
        self._data_rows = array("q")
        self._call_rows = array("q")

    def attach(self, machine):
        """Take the recorder slot of ``machine``'s event bus."""
        self._registers = machine.cpu.state.registers
        machine.events.attach_recorder(self)
        return self

    # --- rows ----------------------------------------------------------------

    def block(self, start, count, first_cycle, last_cycle, low_sp):
        """One executed run of ``count`` instructions from ``start``."""
        rows = self._block_rows
        rows.extend((start, count, first_cycle, last_cycle, low_sp))
        if len(rows) >= FOLD_ROWS * _BLOCK_FIELDS:
            self._fold_blocks()

    def access(self, kind, address, at_cycle):
        """One routed access, as the bus publishes it."""
        if kind is EventKind.FETCH:
            self.block(address, 1, at_cycle, at_cycle, self._registers[SP])
            return
        rows = self._data_rows
        rows.extend((address, kind is EventKind.WRITE, at_cycle))
        if len(rows) >= FOLD_ROWS * _DATA_FIELDS:
            self._fold_data()

    def call(self, target):
        """One executed ``bl``."""
        rows = self._call_rows
        rows.append(target)
        if len(rows) >= FOLD_ROWS:
            self._fold_calls()

    # --- the fold ------------------------------------------------------------

    def _fold_blocks(self):
        import numpy as np

        code = self._code
        selected = code.select(self._block_rows, _BLOCK_FIELDS)
        self._block_rows = array("q")
        if selected is None:
            return
        index, rows = selected
        firsts = rows[:, 2]
        np.add.at(code.reads, index, rows[:, 1])
        np.minimum.at(code.low_sp, index, rows[:, 4])
        code.touch(index, firsts, rows[:, 3])
        code.episodes(index, firsts)

    def _fold_data(self):
        import numpy as np

        data = self._data
        selected = data.select(self._data_rows, _DATA_FIELDS)
        self._data_rows = array("q")
        if selected is None:
            return
        index, rows = selected
        addresses, writes, cycles = rows[:, 0], rows[:, 1], rows[:, 2]
        if self._stack is not None:
            on_stack = addresses[index == self._stack]
            if on_stack.size:
                low = int(on_stack.min())
                if self._stack_low is None or low < self._stack_low:
                    self._stack_low = low
        np.add.at(data.writes, index, writes)
        np.add.at(data.reads, index, 1 - writes)
        # ACE: a read banks the gap since the block's previous touch; a
        # write only reopens the window.  Sorting by block (stably, so
        # each block's touches stay in time order) puts every touch
        # right after its predecessor; a block's first touch in the
        # batch follows its last touch of earlier batches.
        order = np.argsort(index, kind="stable")
        index_s = index[order]
        cycles_s, writes_s = cycles[order], writes[order]
        head = np.ones(index_s.size, dtype=bool)
        head[1:] = index_s[1:] != index_s[:-1]
        previous = np.empty_like(cycles_s)
        previous[1:] = cycles_s[:-1]
        heads = index_s[head]
        previous[head] = np.where(data.first[heads] != _NEVER,
                                  data.last[heads], -1)
        banked = (writes_s == 0) & (previous >= 0)
        np.add.at(data.ace, index_s[banked],
                  cycles_s[banked] - previous[banked])
        tail = np.ones(index_s.size, dtype=bool)
        tail[:-1] = head[1:]
        data.last_write[index_s[tail]] = writes_s[tail]
        data.touch(index, cycles, cycles)
        data.episodes(index, cycles)

    def _fold_calls(self):
        import numpy as np

        selected = self._code.select(self._call_rows, 1)
        self._call_rows = array("q")
        if selected is not None:
            np.add.at(self._code.stack_calls, selected[0], 1)

    # --- results -------------------------------------------------------------

    def finish(self, end_cycle):
        """Fold what is left, close the episodes and ACE windows still
        open at ``end_cycle``, and return ``(fields, stack_low)``:
        :class:`BlockStats` keyword arguments by block name, and the
        lowest stack address a data access touched (None if none)."""
        self._fold_blocks()
        self._fold_data()
        self._fold_calls()
        self._registers = None
        code, data = self._code, self._data
        code.close(end_cycle)
        data.close(end_cycle)
        # a window opened by a write stays ACE until the run ends: the
        # stored value is architecturally live at halt
        open_write = ((data.first != _NEVER) & (data.last_write == 1)
                      & (data.last < end_cycle))
        data.ace[open_write] += end_cycle - data.last[open_write]
        touched = code.first != _NEVER
        code.ace[touched] = code.last[touched] - code.first[touched]
        fields = {}
        for family in (code, data):
            fields.update(family.fields(self._stack_top))
        return fields, self._stack_low


class _Family:
    """Running per-block totals over one block family (code or data
    blocks), in :class:`~repro.profile.blocks.BlockIndex` order."""

    def __init__(self, blocks):
        import numpy as np

        self.blocks = sorted(blocks, key=lambda block: block.home_start)
        self.starts = np.array([b.home_start for b in self.blocks],
                               dtype=np.int64)
        self.ends = np.array([b.home_end for b in self.blocks],
                             dtype=np.int64)
        size = len(self.blocks)
        zeros = lambda: np.zeros(size, dtype=np.int64)
        self.reads = zeros()
        self.writes = zeros()
        self.references = zeros()
        self.stack_calls = zeros()
        self.active = zeros()
        self.ace = zeros()
        self.last = zeros()
        self.last_write = zeros()
        self.first = np.full(size, _NEVER, dtype=np.int64)
        self.low_sp = np.full(size, _NEVER, dtype=np.int64)
        self.current = -1  # block of the open episode
        self.episode_start = 0

    def select(self, column, fields):
        """The rows of ``column`` (``fields`` values per row) whose
        first value, an address, lies in one of the family's blocks, as
        ``(index, rows)``: ``index`` holds each row's block position.
        None when no row does."""
        import numpy as np

        if not column or not self.blocks:
            return None
        rows = np.frombuffer(column, dtype=np.int64).reshape(-1, fields)
        addresses = rows[:, 0]
        index = np.searchsorted(self.starts, addresses, side="right") - 1
        hit = (index >= 0) & (addresses < self.ends[index])
        if not hit.all():
            if not hit.any():
                return None
            index, rows = index[hit], rows[hit]
        return index, rows

    def touch(self, index, firsts, lasts):
        import numpy as np

        # cycles never decrease along a run, so the minimum is the first
        # touch and the maximum the last
        np.minimum.at(self.first, index, firsts)
        np.maximum.at(self.last, index, lasts)

    def episodes(self, index, starts):
        """Count references: an episode opens wherever the block
        differs from the one before it (the open episode carries over
        between batches), and each closes when the next one opens."""
        import numpy as np

        previous = np.empty_like(index)
        previous[0] = self.current
        previous[1:] = index[:-1]
        opens = np.flatnonzero(index != previous)
        if not opens.size:
            return
        blocks, opened = index[opens], starts[opens]
        if self.current >= 0:
            self.active[self.current] += opened[0] - self.episode_start
        np.add.at(self.active, blocks[:-1], np.diff(opened))
        np.add.at(self.references, blocks, 1)
        self.current = int(blocks[-1])
        self.episode_start = int(opened[-1])

    def close(self, end_cycle):
        if self.current >= 0:
            self.active[self.current] += end_cycle - self.episode_start
            self.current = -1

    def fields(self, stack_top):
        """:class:`BlockStats` keyword arguments by block name, every
        value a plain Python int (or None for an untouched block's
        first touch)."""
        columns = [self.reads.tolist(), self.writes.tolist(),
                   self.references.tolist(), self.stack_calls.tolist(),
                   self.low_sp.tolist(), self.first.tolist(),
                   self.last.tolist(), self.active.tolist(),
                   self.ace.tolist()]
        fields = {}
        for block, (reads, writes, references, stack_calls, low_sp, first,
                    last, active, ace) in zip(self.blocks, zip(*columns)):
            fields[block.name] = {
                "reads": reads,
                "writes": writes,
                "references": references,
                "stack_calls": stack_calls,
                "max_stack_bytes": max(0, stack_top - low_sp),
                "first_touch_cycle": None if first == _NEVER else first,
                "last_touch_cycle": last,
                "active_cycles": active,
                "ace_cycles": ace,
            }
        return fields
