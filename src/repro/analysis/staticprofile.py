"""Simulation-free profile estimation (the paper's MDA inputs, bounded).

The estimator turns CFG + trip counts + constant propagation into the
same per-block quantities the dynamic profiler measures:

* **fetch counts** for code blocks — sound ``[lo, hi]`` execution-count
  bounds per basic block (products of loop trip bounds, call-count
  propagation through the call graph) summed over each ``.func`` range;
* **data access counts** — every ``ldr/str/push/pop`` site attributed
  to the data object(s) or stack its address can reach, weighted by the
  site's execution bounds;
* **ACE-interval and lifetime estimates** — block activity windows from
  a deterministic schedule walk over the loop nest, with a documented
  cost model (the estimate feeds MDA's susceptibility ordering; the
  sound ACE *bounds* are kept separately and are intentionally loose).

Lower bounds are genuinely sound: a block's count is only bounded away
from zero when it dominates every function exit and cannot be starved
by a non-returning callee or an unbounded loop.  Upper bounds go to
``None`` (unbounded) on recursion, data-dependent loops, or indirect
branches.  Point estimates fill the gaps with documented defaults so
MDA always gets a usable profile; every such guess is recorded in
``StaticProfile.assumptions``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.instructions import Condition, Mnemonic, writes_register
from ..isa.registers import LR, PC
from ..profile.blocks import (
    BlockKind,
    ProgramBlock,
    STACK_BLOCK_NAME,
    enumerate_blocks,
)
from ..profile.bounds import BlockAccessBounds, CountBounds, StaticProfile
from ..profile.profiler import BlockStats
from .cfg import build_cfg, is_return
from .loops import infer_trip_counts
from .values import ConstantPropagation

#: calls per external invocation assumed for a recursive cycle; a
#: divide-and-conquer routine over an SPM-sized object (hundreds of
#: words) makes on the order of that many calls, e.g. ~680 for the
#: case study's 512-word quicksort
RECURSION_CALL_ESTIMATE = 256
#: stack frames assumed live for a recursive cycle
RECURSION_DEPTH_ESTIMATE = 16
#: worst-case cycles per individual memory access (deep miss path);
#: only used for the sound upper bound on total/ACE cycles
WORST_CASE_ACCESS_CYCLES = 256


@dataclass(frozen=True)
class Count:
    """Sound bounds plus a point estimate for one counted quantity."""

    bounds: CountBounds
    est: int

    @classmethod
    def exact(cls, value):
        return cls(CountBounds.exact(value), value)

    def __add__(self, other):
        return Count(self.bounds + other.bounds, self.est + other.est)

    def __mul__(self, other):
        return Count(self.bounds * other.bounds, self.est * other.est)

    def scaled(self, factor):
        return Count(self.bounds.scaled(factor), self.est * factor)

    def conditional(self):
        """The count of an effect guarded by a condition code."""
        return Count(self.bounds.widen_lo(0), (self.est + 1) // 2)


ZERO_COUNT = Count(CountBounds(0, 0), 0)
ONE_COUNT = Count(CountBounds(1, 1), 1)


def _instruction_cost(instruction):
    """Estimated cycles to fetch and execute one instruction (hits)."""
    mnemonic = instruction.mnemonic
    cost = 2  # fetch + execute
    if mnemonic in (Mnemonic.MUL, Mnemonic.MLA):
        cost += 2
    elif mnemonic in (Mnemonic.SDIV, Mnemonic.UDIV):
        cost += 10
    elif mnemonic in (Mnemonic.B, Mnemonic.BL, Mnemonic.BX):
        cost += 1
    cost += _access_width(instruction)
    return cost


def _access_width(instruction):
    """Data accesses one execution performs (0 for non-memory ops)."""
    mnemonic = instruction.mnemonic
    if mnemonic in (Mnemonic.PUSH, Mnemonic.POP):
        return len(instruction.operands[0].value)
    if mnemonic in (Mnemonic.LDR, Mnemonic.LDRB,
                    Mnemonic.STR, Mnemonic.STRB):
        return 1 if len(instruction.operands) == 3 else 0
    return 0


def _worst_cost(instruction):
    """Sound per-execution cycle ceiling (every access a deep miss)."""
    return (WORST_CASE_ACCESS_CYCLES + 12
            + _access_width(instruction) * WORST_CASE_ACCESS_CYCLES)


class ProgramAnalysis:
    """Everything the static profiler and the linter share."""

    def __init__(self, program):
        self.program = program
        self.cfg = build_cfg(program)
        self.constprop = ConstantPropagation(self.cfg)
        for function in self.cfg.functions.values():
            infer_trip_counts(self.cfg, function, self.constprop)
        self.assumptions = []
        self.has_indirect_flow = self._detect_indirect_flow()
        self._callees = self._call_edges()
        self._scc_order, self._recursive = self._condense_call_graph()
        self.may_not_return = self._classify_returns()
        self.rel_counts = {}  # (fn entry, block start) -> Count
        self.entry_counts = {}  # fn entry -> Count (invocations)
        self.block_counts = {}  # block start -> absolute Count
        self._compute_counts()
        self.durations = self._compute_durations()
        self.windows = {}  # block start -> (start_cycle, end_cycle)
        self.total_cycles_est = self._assign_windows()
        self.total_cycles_hi = self._total_cycles_hi()

    # --- call graph -------------------------------------------------------

    def _detect_indirect_flow(self):
        """Indirect jumps the analyzer cannot chase (``bx r5``)."""
        for address, instruction in self.program.iter_instructions():
            if instruction.mnemonic is Mnemonic.BX:
                operand = instruction.operands[0]
                if operand.is_register and operand.value != LR:
                    self.assumptions.append(
                        "indirect branch at 0x%05x: upper bounds dropped"
                        % address)
                    return True
            elif writes_register(instruction, PC):
                self.assumptions.append(
                    "pc write at 0x%05x: upper bounds dropped" % address)
                return True
        return False

    def call_sites_of(self, entry):
        """``(block start, callee entry)`` for resolvable calls."""
        function = self.cfg.functions[entry]
        sites = []
        for start in function.blocks:
            target = self.cfg.blocks[start].call_target
            if target is not None and target in self.cfg.functions:
                sites.append((start, target))
        return sites

    def _call_edges(self):
        return {entry: sorted({target for _, target
                               in self.call_sites_of(entry)})
                for entry in self.cfg.functions}

    def _condense_call_graph(self):
        """SCC condensation; returns (topological order, recursive set)."""
        reachable = {}
        for entry in self.cfg.functions:
            seen = set()
            stack = [entry]
            while stack:
                node = stack.pop()
                for callee in self._callees.get(node, ()):
                    if callee not in seen:
                        seen.add(callee)
                        stack.append(callee)
            reachable[entry] = seen
        recursive = {entry for entry in self.cfg.functions
                     if entry in reachable[entry]}
        # Kahn's algorithm over the SCC-free "calls into" relation:
        # callers first, so entry counts accumulate downward.
        order = []
        remaining = set(self.cfg.functions)
        while remaining:
            layer = [entry for entry in sorted(remaining)
                     if not any(entry in reachable[other]
                                and other not in reachable[entry]
                                for other in remaining if other != entry)]
            if not layer:
                layer = sorted(remaining)  # cyclic leftovers
            order.extend(layer)
            remaining -= set(layer)
        return order, recursive

    def _classify_returns(self):
        """Which functions might never hand control back to a caller."""
        may_not_return = {}
        for entry in reversed(self._scc_order):  # callees first
            function = self.cfg.functions[entry]
            bad = entry in self._recursive or function.irreducible
            if not function.exit_blocks:
                bad = True
            for exit_start in function.exit_blocks:
                terminator = self.cfg.blocks[exit_start].terminator
                if not is_return(terminator):
                    bad = True  # halts or falls off the image
            for loop in function.loops:
                if loop.trip_hi is None:
                    bad = True
            for callee in self._callees.get(entry, ()):
                if may_not_return.get(callee, callee in self._recursive):
                    bad = True
            may_not_return[entry] = bad
        return may_not_return

    # --- relative (per-invocation) execution counts -----------------------

    def _relative_counts(self, entry):
        cfg = self.cfg
        function = cfg.functions[entry]
        body = set(function.blocks)
        innermost = {}
        for start in function.blocks:
            containing = function.loops_containing(start)
            innermost[start] = containing[-1] if containing else None

        header_counts = {}  # loop header -> (hi or None, est)
        in_progress = set()

        def hi_est_of(start):
            loop = innermost[start]
            if loop is None:
                return 1, 1
            return header_count(loop)

        def header_count(loop):
            # A loop's entry count depends on the counts of loops its
            # outside predecessors sit in (a sibling loop's guard can
            # fall straight into this header), so resolve on demand
            # rather than in any fixed processing order.
            if loop.header in header_counts:
                return header_counts[loop.header]
            if loop.header in in_progress:
                # mutually-entered loops: no finite bound without a
                # full system solve, so give up on the upper bound
                return None, 1
            in_progress.add(loop.header)
            entries_hi, entries_est = 0, 0
            for predecessor in cfg.blocks[loop.header].predecessors:
                if predecessor in body and predecessor not in loop.body:
                    pred_hi, pred_est = hi_est_of(predecessor)
                    entries_hi = (None if entries_hi is None
                                  or pred_hi is None
                                  else entries_hi + pred_hi)
                    entries_est += pred_est
            if loop.header == entry:
                entries_hi = None if entries_hi is None else entries_hi + 1
                entries_est += 1
            in_progress.discard(loop.header)
            if entries_est == 0 and entries_hi == 0:
                # loop only reachable through itself: dead
                result = (0, 0)
            else:
                hi = (None if entries_hi is None or loop.trip_hi is None
                      else entries_hi * loop.trip_hi)
                result = (hi, max(entries_est, 1)
                          * max(loop.trip_estimate or 1, 1))
            header_counts[loop.header] = result
            return result

        guaranteed = self._guaranteed_blocks(function)
        for start in function.blocks:
            hi, est = hi_est_of(start)
            loop = innermost[start]
            if loop is not None and not all(
                    function.dominates(start, latch)
                    for latch in loop.latches):
                # a guarded block inside the loop body: it skips some
                # iterations, so expect it to run about half of them
                est = max(est // 2, 1)
            if self.has_indirect_flow:
                hi = None
            lo = 0
            if start in guaranteed:
                lo = 1
                for loop in function.loops_containing(start):
                    if all(function.dominates(start, latch)
                           for latch in loop.latches):
                        lo *= loop.trip_lo
            if hi is not None and lo > hi:
                lo = hi
            self.rel_counts[(entry, start)] = Count(
                CountBounds(lo, hi), max(est, lo))

    def _guaranteed_blocks(self, function):
        """Blocks provably executed on every invocation."""
        if function.irreducible or not function.exit_blocks:
            return set()
        cutting_calls = [
            start for start, target in self.call_sites_of(function.entry)
            if self.may_not_return.get(target, True)]
        unbounded_headers = [loop.header for loop in function.loops
                             if loop.trip_hi is None]
        guaranteed = set()
        for start in function.blocks:
            if not all(function.dominates(start, exit_start)
                       for exit_start in function.exit_blocks):
                continue
            # a non-returning callee or a possibly-diverging loop that
            # can run before this block voids the guarantee
            if any(not function.dominates(start, call)
                   for call in cutting_calls):
                continue
            if any(not function.dominates(start, header)
                   for header in unbounded_headers):
                continue
            guaranteed.add(start)
        return guaranteed

    # --- absolute counts --------------------------------------------------

    def _compute_counts(self):
        for entry in self.cfg.functions:
            self._relative_counts(entry)

        program_entry = self.cfg.entry
        for entry in self._scc_order:  # callers first
            count = ZERO_COUNT
            if entry == program_entry:
                count = count + ONE_COUNT
            for caller, sites in self._callees.items():
                if entry not in sites:
                    continue
                caller_count = self.entry_counts.get(caller)
                if caller_count is None:
                    continue  # intra-SCC edge; handled by recursion rules
                for start, target in self.call_sites_of(caller):
                    if target != entry:
                        continue
                    site = caller_count * self.rel_counts[(caller, start)]
                    terminator = self.cfg.blocks[start].terminator
                    if terminator.condition is not Condition.AL:
                        site = site.conditional()
                    count = count + site
            if entry in self._recursive:
                if count.est or count.bounds.hi is None or count.bounds.hi:
                    self.assumptions.append(
                        "recursion through %r: call count unbounded"
                        % self.cfg.functions[entry].name)
                count = Count(CountBounds.unbounded(count.bounds.lo),
                              max(count.est, 1) * RECURSION_CALL_ESTIMATE)
            self.entry_counts[entry] = count

        for entry in self.cfg.functions:
            invocation = self.entry_counts[entry]
            for start in self.cfg.functions[entry].blocks:
                absolute = invocation * self.rel_counts[(entry, start)]
                previous = self.block_counts.get(start, ZERO_COUNT)
                self.block_counts[start] = previous + absolute

    def block_count(self, start):
        return self.block_counts.get(start, ZERO_COUNT)

    # --- durations and activity windows -----------------------------------

    def _compute_durations(self):
        durations = {}
        for entry in reversed(self._scc_order):  # callees first
            function = self.cfg.functions[entry]
            total = 0
            for start in function.blocks:
                rel = self.rel_counts[(entry, start)].est
                block = self.cfg.blocks[start]
                cost = sum(_instruction_cost(instruction)
                           for _, instruction in block.instructions)
                total += rel * cost
                target = block.call_target
                if target is not None and target in durations:
                    total += rel * durations[target]
            if entry in self._recursive:
                total *= RECURSION_DEPTH_ESTIMATE
            durations[entry] = max(total, 1)
        return durations

    def _window_add(self, start, begin, end):
        window = self.windows.get(start)
        if window is None:
            self.windows[start] = (begin, end)
        else:
            self.windows[start] = (min(window[0], begin),
                                   max(window[1], end))

    def _flat_windows(self, entry, begin, end, seen):
        """Assign one window to a whole function subtree (recursion)."""
        if entry in seen:
            return
        seen.add(entry)
        for start in self.cfg.functions[entry].blocks:
            self._window_add(start, begin, end)
        for callee in self._callees.get(entry, ()):
            self._flat_windows(callee, begin, end, seen)

    def _loop_duration(self, entry, loop):
        function = self.cfg.functions[entry]
        total = 0
        for start in sorted(loop.body):
            multiplier = 1
            for containing in function.loops_containing(start):
                multiplier *= max(containing.trip_estimate or 1, 1)
            block = self.cfg.blocks[start]
            cost = sum(_instruction_cost(instruction)
                       for _, instruction in block.instructions)
            target = block.call_target
            if target is not None:
                cost += self.durations.get(target, 0)
            total += multiplier * cost
        return max(total, 1)

    def _walk_windows(self, entry, start_cycle, path):
        if entry in path:
            self._flat_windows(entry, start_cycle,
                               start_cycle + self.durations[entry], set())
            return self.durations[entry]
        path = path | {entry}
        function = self.cfg.functions[entry]
        now = start_cycle
        handled_loops = set()
        for start in function.blocks:  # address order
            containing = function.loops_containing(start)
            if containing:
                outer = containing[0]
                if outer.header in handled_loops:
                    continue
                handled_loops.add(outer.header)
                duration = self._loop_duration(entry, outer)
                for member in sorted(outer.body):
                    self._window_add(member, now, now + duration)
                    target = self.cfg.blocks[member].call_target
                    if target is not None and target in self.cfg.functions:
                        self._flat_windows(target, now, now + duration,
                                           set())
                now += duration
                continue
            block = self.cfg.blocks[start]
            cost = sum(_instruction_cost(instruction)
                       for _, instruction in block.instructions)
            self._window_add(start, now, now + cost)
            now += cost
            target = block.call_target
            if target is not None and target in self.cfg.functions:
                now += self._walk_windows(target, now, path)
        return now - start_cycle

    def _assign_windows(self):
        if self.cfg.entry in self.cfg.functions:
            return self._walk_windows(self.cfg.entry, 0, frozenset())
        return 0

    def _total_cycles_hi(self):
        total = 0
        for start, count in self.block_counts.items():
            if count.bounds.hi is None:
                return None
            worst = sum(_worst_cost(instruction) for _, instruction
                        in self.cfg.blocks[start].instructions)
            total += count.bounds.hi * worst
        return total

    # --- stack footprint --------------------------------------------------

    def stack_footprint_estimate(self):
        """Worst-path pushed bytes, with a recursion depth heuristic."""
        local = {}
        for entry, function in self.cfg.functions.items():
            pushed = 0
            for start in function.blocks:
                for _, instruction in self.cfg.blocks[start].instructions:
                    if instruction.mnemonic is Mnemonic.PUSH:
                        pushed += 4 * len(instruction.operands[0].value)
            local[entry] = pushed
        depth = {}
        for entry in reversed(self._scc_order):
            own = local.get(entry, 0)
            if entry in self._recursive:
                own *= RECURSION_DEPTH_ESTIMATE
            deepest = max((depth.get(callee, 0) for callee
                           in self._callees.get(entry, ())), default=0)
            depth[entry] = own + deepest
        if self.cfg.entry in depth:
            return depth[self.cfg.entry]
        return max(depth.values(), default=0)


def build_static_profile(program):
    """Derive a :class:`StaticProfile` without running the program."""
    return _StaticProfileBuilder(ProgramAnalysis(program)).build()


class _StaticProfileBuilder:
    def __init__(self, analysis):
        self.analysis = analysis
        self.program = analysis.program
        blocks = enumerate_blocks(self.program)
        self.stats = {block.name: BlockStats(block) for block in blocks}
        self.bounds = {block.name: BlockAccessBounds() for block in blocks}
        self.touch_windows = {}  # block name -> (begin, end)
        self.unknown_reads = ZERO_COUNT
        self.unknown_writes = ZERO_COUNT

    # --- helpers ----------------------------------------------------------

    def _touch(self, name, window):
        if window is None:
            return
        current = self.touch_windows.get(name)
        if current is None:
            self.touch_windows[name] = window
        else:
            self.touch_windows[name] = (min(current[0], window[0]),
                                        max(current[1], window[1]))

    def _data_like_names(self):
        return [name for name, stats in self.stats.items()
                if stats.kind.is_data_like]

    def _record(self, name, count, is_write, window, references=None):
        stats = self.stats[name]
        bounds = self.bounds[name]
        if is_write:
            stats.writes += count.est
            bounds.writes = bounds.writes + count.bounds
        else:
            stats.reads += count.est
            bounds.reads = bounds.reads + count.bounds
        stats.references += (references if references is not None
                             else count.est)
        self._touch(name, window)

    # --- build ------------------------------------------------------------

    def build(self):
        analysis = self.analysis
        self._fetch_counts()
        self._data_counts()
        self._stack_shape()
        self._timeline()
        self._ace()
        total_instructions = sum(
            count.est * len(analysis.cfg.blocks[start].instructions)
            for start, count in analysis.block_counts.items())
        profile = StaticProfile(
            program=self.program,
            blocks=self.stats,
            total_cycles=analysis.total_cycles_est,
            total_instructions=total_instructions,
            source_name=self.program.source_name,
            bounds=self.bounds,
            assumptions=list(analysis.assumptions),
        )
        return profile

    def _fetch_counts(self):
        analysis = self.analysis
        cfg = analysis.cfg
        block_of_address = {}
        for start, block in cfg.blocks.items():
            for address, _ in block.instructions:
                block_of_address[address] = start
        call_entries = {}  # code block name -> Count of calls into it
        for caller in cfg.functions:
            caller_count = analysis.entry_counts[caller]
            for start, target in analysis.call_sites_of(caller):
                site = caller_count * analysis.rel_counts[(caller, start)]
                code_block = self.program.code_block_at(target)
                if code_block is not None:
                    previous = call_entries.get(code_block.name,
                                                ZERO_COUNT)
                    call_entries[code_block.name] = previous + site

        for name, stats in self.stats.items():
            if stats.kind is not BlockKind.CODE:
                continue
            fetched = ZERO_COUNT
            block = stats.block
            address = block.home_start
            while address < block.home_end:
                start = block_of_address.get(address)
                if start is not None:
                    fetched = fetched + analysis.block_count(start)
                address += 4
            stats.reads = fetched.est
            self.bounds[name].reads = fetched.bounds
            self.bounds[name].writes = CountBounds(0, 0)
            entries = call_entries.get(name, ZERO_COUNT)
            if block.contains(self.program.entry):
                entries = entries + ONE_COUNT
            stats.references = max(entries.est, 1 if fetched.est else 0)
            stats.stack_calls = entries.est

    def _data_counts(self):
        analysis = self.analysis
        cfg = analysis.cfg
        for entry, function in cfg.functions.items():
            invocation = analysis.entry_counts[entry]
            for start in function.blocks:
                base = invocation * analysis.rel_counts[(entry, start)]
                if base.bounds.hi == 0 and base.est == 0:
                    continue
                window = analysis.windows.get(start)
                for address, instruction in cfg.blocks[start].instructions:
                    self._data_site(function, start, address, instruction,
                                    base, window)
        unknown = self.unknown_reads + self.unknown_writes
        if unknown.bounds.hi != 0 or unknown.est != 0:
            # An unresolvable address may touch any data-like block:
            # drop the upper bounds and spread the estimate evenly so
            # heavily-accessed pointer-chasing code still ranks its
            # arrays above untouched objects.
            names = self._data_like_names()
            for name in names:
                bounds = self.bounds[name]
                bounds.reads = CountBounds(bounds.reads.lo, None)
                bounds.writes = CountBounds(bounds.writes.lo, None)
                stats = self.stats[name]
                stats.reads += self.unknown_reads.est // len(names)
                stats.writes += self.unknown_writes.est // len(names)
            self.analysis.assumptions.append(
                "unresolved address: data upper bounds dropped, "
                "%d reads / %d writes spread over %d blocks"
                % (self.unknown_reads.est, self.unknown_writes.est,
                   len(names)))

    def _data_site(self, function, start, address, instruction, base,
                   window):
        mnemonic = instruction.mnemonic
        count = base
        if instruction.condition is not Condition.AL:
            count = count.conditional()
        if mnemonic in (Mnemonic.PUSH, Mnemonic.POP):
            width = len(instruction.operands[0].value)
            self._record(STACK_BLOCK_NAME, count.scaled(width),
                         is_write=mnemonic is Mnemonic.PUSH,
                         window=window, references=count.est)
            return
        if mnemonic not in (Mnemonic.LDR, Mnemonic.LDRB,
                            Mnemonic.STR, Mnemonic.STRB):
            return
        if len(instruction.operands) != 3:
            return  # address generation / will not execute
        is_write = instruction.is_store
        constant, regions = self.analysis.constprop.address_regions(
            function, start, address, instruction)
        if constant is not None:
            target = self._block_at(constant)
            if target is not None:
                self._record(target, count, is_write, window)
            return
        regions = [region for region in sorted(regions)
                   if region in self.stats]
        if not regions:
            if is_write:
                self.unknown_writes = self.unknown_writes + count
            else:
                self.unknown_reads = self.unknown_reads + count
            return
        if len(regions) == 1:
            self._record(regions[0], count, is_write, window)
            return
        # the access hits exactly one of several candidates per
        # execution: upper bound each with the full count, split the
        # estimate, and claim no lower bound
        split = Count(CountBounds(0, count.bounds.hi),
                      max(count.est // len(regions), 1))
        for region in regions:
            self._record(region, split, is_write, window)

    def _block_at(self, address):
        for name, stats in self.stats.items():
            if stats.block.kind.is_data_like and (
                    stats.block.contains(address)):
                return name
        return None

    def _stack_shape(self):
        """Mirror the dynamic profiler's footprint shrink, statically."""
        stack = self.stats[STACK_BLOCK_NAME]
        touched = (stack.reads or stack.writes
                   or self.bounds[STACK_BLOCK_NAME].reads.hi != 0
                   or self.bounds[STACK_BLOCK_NAME].writes.hi != 0)
        if not touched:
            return
        footprint = self.analysis.stack_footprint_estimate()
        footprint = max((footprint + 63) // 64 * 64, 64)
        footprint = min(footprint, stack.block.size)
        stack.block = ProgramBlock(
            name=stack.block.name,
            kind=stack.block.kind,
            home_start=stack.block.home_end - footprint,
            size=footprint,
        )

    def _timeline(self):
        analysis = self.analysis
        for name, stats in self.stats.items():
            if stats.kind is BlockKind.CODE:
                window = None
                for start, bounds in analysis.windows.items():
                    block_address = analysis.cfg.blocks[start].start
                    if stats.block.contains(block_address):
                        window = (bounds if window is None else
                                  (min(window[0], bounds[0]),
                                   max(window[1], bounds[1])))
                if window is not None:
                    self._touch(name, window)
        for name, window in self.touch_windows.items():
            stats = self.stats.get(name)
            if stats is None:
                continue
            stats.first_touch_cycle = int(window[0])
            stats.last_touch_cycle = int(window[1])
            stats.active_cycles = int(window[1] - window[0])

    def _ace(self):
        analysis = self.analysis
        ace_hi = analysis.total_cycles_hi
        total = analysis.total_cycles_est
        for name, stats in self.stats.items():
            bounds = self.bounds[name]
            if stats.kind is BlockKind.CODE:
                # instruction words are read-only: every cycle between
                # first and last fetch is vulnerable-ish; estimate with
                # the activity span
                stats.ace_cycles = stats.life_time
            elif stats.accesses:
                reads, writes = stats.reads, stats.writes
                if reads == 0 and writes:
                    # written, never read back: exposed from the last
                    # write to the end of the run (AceTracker.finish)
                    stats.ace_cycles = max(
                        total - stats.last_touch_cycle, 0)
                else:
                    fraction = reads / max(reads + writes, 1)
                    stats.ace_cycles = int(stats.life_time * fraction)
            bounds.ace_cycles = CountBounds(
                0, ace_hi if stats.accesses or (
                    stats.kind is BlockKind.CODE) else 0)
