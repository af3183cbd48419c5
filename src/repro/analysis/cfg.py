"""Control-flow graph construction over assembled programs.

The CFG is built at two granularities:

* **basic blocks** — maximal straight-line instruction runs, program
  wide, with intra-procedural edges (fallthrough, branch taken) and a
  separate **call edge** set for ``bl``;
* **flow functions** — one per call-graph entry (the program entry plus
  every ``bl`` target and every ``.func`` start): the subgraph of basic
  blocks reachable from the entry without following call edges,
  together with its dominator tree and natural loops.

``bx``/``pop {... pc}``/``mov pc, ...`` terminate a function (return or
indirect jump — the analyzer does not chase indirect targets), ``halt``
terminates the program.  A conditional return/halt keeps its
fallthrough edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa.instructions import (
    INSTRUCTION_BYTES,
    Condition,
    Mnemonic,
    ends_block,
)

#: registers an ARM-style call may clobber (plus LR and the flags)
CALL_CLOBBERED = frozenset({0, 1, 2, 3, 12})
#: argument registers a call is assumed to read
CALL_ARGUMENTS = frozenset({0, 1, 2, 3})


def is_return(instruction):
    """True for instructions that leave the current function: ``bx`` or
    a write to PC, every block ender but a direct branch or ``halt``."""
    return ends_block(instruction) and instruction.mnemonic not in (
        Mnemonic.B, Mnemonic.BL, Mnemonic.HALT)


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions."""

    start: int
    instructions: list  # [(address, Instruction)] in address order
    successors: list = field(default_factory=list)  # block start addrs
    predecessors: list = field(default_factory=list)
    call_target: int = None  # bl target when the terminator is a call
    falls_off_end: bool = False  # control can run past the text image

    @property
    def end(self):
        """One past the last instruction address."""
        return self.instructions[-1][0] + INSTRUCTION_BYTES

    @property
    def terminator(self):
        return self.instructions[-1][1]

    @property
    def terminator_address(self):
        return self.instructions[-1][0]

    @property
    def span(self):
        first = self.instructions[0][1].span
        last = self.instructions[-1][1].span
        if first is None:
            return last
        return first.union(last)

    def __len__(self):
        return len(self.instructions)


@dataclass
class Loop:
    """One natural loop: header plus body (header included)."""

    header: int  # block start address
    body: frozenset  # block start addresses, header included
    latches: tuple  # blocks with a back edge to the header
    #: inferred header-execution bounds (filled by repro.analysis.loops):
    #: lo is a sound lower bound, hi a sound upper bound or None when
    #: the trip count could not be bounded
    trip_lo: int = 1
    trip_hi: int = None
    trip_estimate: int = None  # point estimate for the static profiler

    def contains(self, block_start):
        return block_start in self.body

    @property
    def depth_key(self):
        return len(self.body)


@dataclass
class FlowFunction:
    """The intra-procedural subgraph reachable from one entry."""

    entry: int
    name: str
    blocks: tuple  # block start addresses, sorted
    exit_blocks: tuple  # blocks that return/halt/fall off the image
    dominators: dict  # block start -> frozenset of dominating block starts
    loops: list  # Loop, innermost-last per nesting chain
    irreducible: bool = False  # a back-ish edge whose target doesn't dominate

    def loops_containing(self, block_start):
        """Loops containing the block, outermost first."""
        found = [loop for loop in self.loops if loop.contains(block_start)]
        found.sort(key=lambda loop: -loop.depth_key)
        return found

    def dominates(self, a, b):
        """True when block ``a`` dominates block ``b``."""
        return a in self.dominators.get(b, frozenset())


@dataclass
class ControlFlowGraph:
    """Program-wide CFG: basic blocks, call graph, flow functions."""

    program: object
    blocks: dict  # start address -> BasicBlock
    functions: dict  # entry address -> FlowFunction
    call_sites: list  # [(block start, call target address)]
    entry: int

    def reachable_addresses(self):
        """Instruction addresses covered by any flow function."""
        covered = set()
        for fn in self.functions.values():
            for start in fn.blocks:
                for address, _ in self.blocks[start].instructions:
                    covered.add(address)
        return covered


def _branch_target(instruction):
    if instruction.mnemonic in (Mnemonic.B, Mnemonic.BL):
        op = instruction.operands[0]
        if op.is_immediate:
            return op.value
    return None


def build_cfg(program):
    """Construct the :class:`ControlFlowGraph` for an assembled program."""
    addresses = sorted(program.instructions)
    if not addresses:
        return ControlFlowGraph(program=program, blocks={}, functions={},
                                call_sites=[], entry=program.entry)
    address_set = set(addresses)

    # --- leaders ----------------------------------------------------------
    leaders = {addresses[0], program.entry}
    for block in program.code_blocks:
        if block.start in address_set:
            leaders.add(block.start)
    for address in addresses:
        instruction = program.instructions[address]
        target = _branch_target(instruction)
        if target is not None and target in address_set:
            leaders.add(target)
        if ends_block(instruction):
            follower = address + INSTRUCTION_BYTES
            if follower in address_set:
                leaders.add(follower)

    # --- blocks -----------------------------------------------------------
    blocks = {}
    current = None
    for address in addresses:
        if address in leaders or current is None:
            current = BasicBlock(start=address, instructions=[])
            blocks[address] = current
        current.instructions.append((address, program.instructions[address]))
        if ends_block(program.instructions[address]):
            current = None

    # --- edges ------------------------------------------------------------
    call_sites = []
    for block in blocks.values():
        terminator = block.terminator
        follower = block.end
        mnemonic = terminator.mnemonic
        conditional = terminator.condition is not Condition.AL
        fallthrough = False
        if mnemonic is Mnemonic.B:
            target = _branch_target(terminator)
            if target in address_set:
                block.successors.append(target)
            fallthrough = conditional
        elif mnemonic is Mnemonic.BL:
            target = _branch_target(terminator)
            block.call_target = target
            call_sites.append((block.start, target))
            fallthrough = True  # control returns after the call
        elif mnemonic is Mnemonic.HALT or is_return(terminator):
            fallthrough = conditional
        else:
            fallthrough = True  # block ended because the next addr is a leader
        if fallthrough:
            if follower in address_set:
                if follower not in block.successors:
                    block.successors.append(follower)
            else:
                block.falls_off_end = True
    for block in blocks.values():
        for successor in block.successors:
            blocks[successor].predecessors.append(block.start)

    # --- flow functions ---------------------------------------------------
    entries = {}
    if program.entry in address_set:
        entries[program.entry] = _entry_name(program, program.entry)
    for _, target in call_sites:
        if target in address_set and target not in entries:
            entries[target] = _entry_name(program, target)
    for code_block in program.code_blocks:
        if code_block.start in address_set and code_block.start not in entries:
            entries[code_block.start] = code_block.name

    functions = {}
    for entry, name in entries.items():
        functions[entry] = _build_function(blocks, entry, name)

    return ControlFlowGraph(program=program, blocks=blocks,
                            functions=functions, call_sites=call_sites,
                            entry=program.entry)


def _entry_name(program, address):
    for name, value in sorted(program.symbols.items()):
        if value == address:
            return name
    return "fn_0x%05x" % address


def _build_function(blocks, entry, name):
    # reachable set, intra-procedural edges only
    body = []
    seen = set()
    stack = [entry]
    while stack:
        start = stack.pop()
        if start in seen:
            continue
        seen.add(start)
        body.append(start)
        for successor in blocks[start].successors:
            if successor not in seen:
                stack.append(successor)
    body.sort()
    body_set = frozenset(body)

    exit_blocks = []
    for start in body:
        block = blocks[start]
        terminator = block.terminator
        returns = (terminator.mnemonic is Mnemonic.HALT
                   or is_return(terminator))
        if returns or block.falls_off_end:
            exit_blocks.append(start)

    dominators = _compute_dominators(blocks, entry, body, body_set)

    loops, irreducible = _find_loops(blocks, entry, body, body_set,
                                     dominators)
    return FlowFunction(entry=entry, name=name, blocks=tuple(body),
                        exit_blocks=tuple(exit_blocks),
                        dominators=dominators, loops=loops,
                        irreducible=irreducible)


def _compute_dominators(blocks, entry, body, body_set):
    """Iterative dataflow dominator computation (small graphs)."""
    full = frozenset(body)
    dominators = {start: full for start in body}
    dominators[entry] = frozenset({entry})
    changed = True
    while changed:
        changed = False
        for start in body:
            if start == entry:
                continue
            predecessor_sets = [dominators[p]
                                for p in blocks[start].predecessors
                                if p in body_set]
            if predecessor_sets:
                new = frozenset.intersection(*predecessor_sets) | {start}
            else:
                new = frozenset({start})
            if new != dominators[start]:
                dominators[start] = new
                changed = True
    return dominators


def _find_loops(blocks, entry, body, body_set, dominators):
    """Natural loops from back edges (tail -> dominating header).

    The graph is *irreducible* when a DFS retreating edge targets a
    block that does not dominate its source (a jump into the middle of
    a loop); trip-count inference refuses such functions.
    """
    irreducible = False
    on_stack, finished = set(), set()
    if entry is not None:
        # iterative DFS from the function entry, tracking the gray set
        work = [(entry, iter(blocks[entry].successors))]
        on_stack.add(entry)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in body_set:
                    continue
                if successor in on_stack:
                    if successor not in dominators[node]:
                        irreducible = True
                elif successor not in finished:
                    work.append(
                        (successor, iter(blocks[successor].successors)))
                    on_stack.add(successor)
                    advanced = True
                    break
            if not advanced:
                work.pop()
                on_stack.discard(node)
                finished.add(node)

    loop_map = {}  # header -> (set of body blocks, list of latches)
    for start in body:
        for successor in blocks[start].successors:
            if successor not in body_set:
                continue
            if successor in dominators[start]:
                # back edge start -> successor
                members, latches = loop_map.setdefault(
                    successor, ({successor}, []))
                latches.append(start)
                # walk predecessors from the latch, stopping at the header
                stack = [start]
                while stack:
                    node = stack.pop()
                    if node in members:
                        continue
                    members.add(node)
                    for predecessor in blocks[node].predecessors:
                        if predecessor in body_set:
                            stack.append(predecessor)
    loops = [Loop(header=header, body=frozenset(members),
                  latches=tuple(sorted(latches)))
             for header, (members, latches) in loop_map.items()]
    loops.sort(key=lambda loop: loop.depth_key)
    return loops, irreducible
