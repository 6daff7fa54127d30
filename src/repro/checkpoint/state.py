"""Bit-exact capture and restore of full machine state.

The snapshot contract is *quiescence*: state is only captured at a
squash-free, exception-free cycle boundary (``Pipeline.quiescent``),
reached by :func:`drain_machine` / :func:`drain_multi` stepping single
cycles until the pipe settles.  At such a boundary the stage latches,
PC unit, FSMs, caches and memory fully determine every future cycle, so
``capture -> JSON -> restore -> finish`` is bit-identical to an
uninterrupted run -- registers, memory, console, and every telemetry
counter (the standing differential gate in :mod:`repro.checkpoint.campaign`
and the fuzz oracle's ``PAIR_CHECKPOINT`` prove exactly that).

Everything serialized is plain JSON: ints, bools, strings, lists.  FPU
registers travel as raw IEEE-754 words, in-flight instructions as their
32-bit encodings (with the shared illegal-word sentinel flagged so its
identity survives the round trip).  Derived structures -- the Icache tag
maps, decode memos, translated JIT blocks -- are *not* serialized; they
are rebuilt or invalidated on restore, which is what makes restore safe
under self-modifying code.

The same capture minus its header, :func:`machine_signature`, is what
every fast-path check compares; :func:`state_diff` names what differs.

Restores are validating: a wrong format version raises
:class:`SnapshotFormatError` and a wrong machine shape raises
:class:`SnapshotConfigError` before any state is touched, so a failed
restore never leaves a half-written machine behind.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, List, Optional

#: snapshot format version; bumped on any schema change so an old
#: generation is rejected by name instead of mis-restored.
#: v2 added the scheduled MMIO device state (UART, timer, block device)
#: to the memory section.
FORMAT = 2

#: default cycle bound for draining to quiescence; the longest settle
#: observed in practice is a miss service + squash window (tens of
#: cycles), so this is orders of magnitude of headroom
DRAIN_BOUND = 4096


class CheckpointError(Exception):
    """Base class for every checkpoint/restore failure."""


class SnapshotIntegrityError(CheckpointError):
    """Snapshot bytes are damaged: truncated, corrupted, or the sha256
    sidecar is missing or does not match."""


class SnapshotFormatError(CheckpointError):
    """Snapshot carries an unknown format version or the wrong shape."""


class SnapshotConfigError(CheckpointError):
    """Snapshot was taken on a machine with a different configuration."""


class QuiescenceTimeout(CheckpointError):
    """The pipeline failed to reach a quiescent boundary within bound."""


def _jsonable(value: Any) -> Any:
    """Normalize through JSON so stored and live values compare equal
    (tuples become lists, dict keys become strings)."""
    return json.loads(json.dumps(value))


def config_fingerprint(config) -> Dict[str, Any]:
    """The JSON-normalized configuration a snapshot is bound to."""
    return _jsonable(dataclasses.asdict(config))


# ----------------------------------------------------------------- drain
def drain_machine(machine, bound: int = DRAIN_BOUND) -> int:
    """Single-step ``machine`` to a quiescent boundary; returns the
    number of cycles consumed.  Raises :class:`QuiescenceTimeout` if the
    pipe does not settle within ``bound`` cycles."""
    pipeline = machine.pipeline
    drained = 0
    while not pipeline.quiescent:
        if drained >= bound:
            raise QuiescenceTimeout(
                f"pipeline not quiescent after {bound} drain cycles "
                f"(squash_fsm={pipeline.squash_fsm.state.name}, "
                f"stall_left={pipeline._stall_left})")
        pipeline.cycle()
        drained += 1
    return drained


def drain_multi(system, bound: int = DRAIN_BOUND) -> int:
    """Step the whole multiprocessor (bus arbitration included) until
    every node is quiescent; returns global cycles consumed."""
    drained = 0
    while not all(machine.pipeline.quiescent
                  for machine in system.machines):
        if drained >= bound:
            busy = [index for index, machine in enumerate(system.machines)
                    if not machine.pipeline.quiescent]
            raise QuiescenceTimeout(
                f"nodes {busy} not quiescent after {bound} drain cycles")
        system.step()
        drained += 1
    return drained


# --------------------------------------------------------------- capture
def _flight_state(flight) -> Optional[Dict[str, Any]]:
    from repro.core.predecode import ILLEGAL_INSTRUCTION
    from repro.isa.encoding import encode

    if flight is None:
        return None
    word = (None if flight.instr is ILLEGAL_INSTRUCTION
            else encode(flight.instr))
    return {
        "pc": flight.pc,
        "word": word,
        "squashed": flight.squashed,
        "result": flight.result,
        "dest": flight.dest,
        "mem_address": flight.mem_address,
        "store_value": flight.store_value,
        "mem_resolved": flight.mem_resolved,
        "taken": flight.taken,
    }


def _restore_flight(state: Optional[Dict[str, Any]]):
    from repro.core.pipeline import Flight
    from repro.core.predecode import ILLEGAL, decode_word

    if state is None:
        return None
    op = ILLEGAL if state["word"] is None else decode_word(state["word"])
    flight = Flight(state["pc"], op)
    flight.squashed = state["squashed"]
    flight.result = state["result"]
    flight.dest = state["dest"]
    flight.mem_address = state["mem_address"]
    flight.store_value = state["store_value"]
    flight.mem_resolved = state["mem_resolved"]
    flight.taken = state["taken"]
    return flight


def _pipeline_state(pipeline) -> Dict[str, Any]:
    squash = pipeline.squash_fsm
    miss = pipeline.miss_fsm
    pc_unit = pipeline.pc_unit
    fault_cause = pipeline._fault_cause
    return {
        "regs": pipeline.regs.snapshot(),
        "psw": pipeline.psw.value,
        "psw_old": pipeline.psw_old.value,
        "md": pipeline.md.value,
        "pc": {
            "fetch": pc_unit.fetch_pc,
            "chain": pc_unit.chain.snapshot(),
            "redirect": pc_unit._redirect,
        },
        "squash_fsm": {
            "state": squash.state.name,
            "squash_line": squash.squash_line,
            "exception_line": squash.exception_line,
            "transitions": squash.transitions,
        },
        "miss_fsm": {
            "state": miss.state.name,
            "plan": [step.name for step in miss._plan],
            "miss_sequences": miss.miss_sequences,
            "stall_cycles": miss.stall_cycles,
        },
        "stats": dataclasses.asdict(pipeline.stats),
        "flights": [_flight_state(flight) for flight in pipeline.s],
        "stall_left": pipeline._stall_left,
        "stall_is_icache": pipeline._stall_is_icache,
        "ready_fetch": pipeline._ready_fetch,
        "halting": pipeline._halting,
        "halted": pipeline.halted,
        "irq_pending": pipeline._irq_pending,
        "nmi_pending": pipeline._nmi_pending,
        "irq_hold": pipeline._irq_hold,
        "fault_cause": fault_cause.name if fault_cause is not None else None,
    }


def _restore_pipeline(pipeline, state: Dict[str, Any]) -> None:
    from repro.core.control import MissState, SquashState
    from repro.core.psw import Psw, PswBit

    pipeline.regs.load(state["regs"])
    pipeline.psw = Psw(state["psw"])
    pipeline.psw_old = Psw(state["psw_old"])
    pipeline.md.value = state["md"]

    pc = state["pc"]
    pipeline.pc_unit.fetch_pc = pc["fetch"]
    pipeline.pc_unit.chain.entries = list(pc["chain"])
    pipeline.pc_unit._redirect = pc["redirect"]

    squash = state["squash_fsm"]
    pipeline.squash_fsm.state = SquashState[squash["state"]]
    pipeline.squash_fsm.squash_line = squash["squash_line"]
    pipeline.squash_fsm.exception_line = squash["exception_line"]
    pipeline.squash_fsm.transitions = squash["transitions"]

    miss = state["miss_fsm"]
    pipeline.miss_fsm.state = MissState[miss["state"]]
    pipeline.miss_fsm._plan = [MissState[name] for name in miss["plan"]]
    pipeline.miss_fsm.miss_sequences = miss["miss_sequences"]
    pipeline.miss_fsm.stall_cycles = miss["stall_cycles"]

    for field, value in state["stats"].items():
        setattr(pipeline.stats, field, value)

    pipeline.s = [_restore_flight(flight) for flight in state["flights"]]
    pipeline._stall_left = state["stall_left"]
    pipeline._stall_is_icache = state["stall_is_icache"]
    pipeline._ready_fetch = state["ready_fetch"]
    pipeline._halting = state["halting"]
    pipeline.halted = state["halted"]
    pipeline._irq_pending = state["irq_pending"]
    pipeline._nmi_pending = state["nmi_pending"]
    pipeline._irq_hold = state["irq_hold"]
    pipeline._fault_cause = (None if state["fault_cause"] is None
                             else PswBit[state["fault_cause"]])

    # derived structures are rebuilt, never trusted across a restore:
    # decode memos and translated JIT blocks may describe the *previous*
    # memory image, so both are invalidated wholesale
    for memo in pipeline._decode_caches:
        memo.clear()
    if pipeline._translator is not None:
        pipeline._translator.clear()


def _icache_state(icache) -> Dict[str, Any]:
    return {
        "sets": [[{"tag": way.tag, "valid": list(way.valid)}
                  for way in cache_set]
                 for cache_set in icache._sets],
        "order": [list(order) for order in icache._order],
        "rand_state": icache._rand_state,
        "stats": dataclasses.asdict(icache.stats),
    }


def _restore_icache(icache, state: Dict[str, Any]) -> None:
    for cache_set, set_state in zip(icache._sets, state["sets"]):
        for way, way_state in zip(cache_set, set_state):
            way.tag = way_state["tag"]
            way.valid = list(way_state["valid"])
    icache._order = [list(order) for order in state["order"]]
    icache._rand_state = state["rand_state"]
    for field, value in state["stats"].items():
        setattr(icache.stats, field, value)
    # the tag maps are an index over _sets; rebuild rather than trust
    icache._tag_maps = [
        {way.tag: index for index, way in enumerate(cache_set)
         if way.tag is not None}
        for cache_set in icache._sets
    ]


def _ecache_state(ecache) -> Dict[str, Any]:
    return {
        "tags": list(ecache._tags),
        "stats": dataclasses.asdict(ecache.stats),
        "fault_forced_misses": ecache.fault_forced_misses,
        "fault_forced_events": ecache.fault_forced_events,
    }


def _restore_ecache(ecache, state: Dict[str, Any]) -> None:
    ecache._tags = list(state["tags"])
    for field, value in state["stats"].items():
        setattr(ecache.stats, field, value)
    ecache.fault_forced_misses = state["fault_forced_misses"]
    ecache.fault_forced_events = state["fault_forced_events"]


def _device_state(memory) -> Dict[str, Any]:
    """Serialize the scheduled MMIO devices (format v2).

    Everything that determines future device behaviour travels: pending
    RX arrivals and their absolute deadlines, the armed timer, an
    in-flight disk command, and the device counters -- so a restored
    machine takes the same interrupts at the same cycles as the
    uninterrupted run (the ``PAIR_CHECKPOINT`` oracle property for
    OS-mode programs).
    """
    uart, timer, disk = memory.uart, memory.timer, memory.disk
    return {
        "uart": {
            "tx_text": uart.tx_text,
            "rx_fifo": list(uart.rx_fifo),
            "rx_pending": [list(pair) for pair in uart.rx_pending],
            "rx_irq_enabled": uart.rx_irq_enabled,
            "tx_chars": uart.tx_chars,
            "rx_delivered": uart.rx_delivered,
            "irqs": uart.irqs,
            "next_event": uart.next_event,
        },
        "timer": {
            "interval": timer.interval,
            "enabled": timer.enabled,
            "periodic": timer.periodic,
            "fires": timer.fires,
            "next_event": timer.next_event,
        },
        "disk": {
            "sector": disk.sector,
            "address": disk.address,
            "busy": disk.busy,
            "done": disk.done,
            "command": disk._command,
            "reads": disk.reads,
            "writes": disk.writes,
            "sectors": {str(number): list(image)
                        for number, image in sorted(disk.sectors.items())},
            "next_event": disk.next_event,
        },
    }


def _restore_devices(memory, state: Dict[str, Any]) -> None:
    from collections import deque

    uart_state = state["uart"]
    uart = memory.uart
    uart.tx_text = uart_state["tx_text"]
    uart.rx_fifo = deque(uart_state["rx_fifo"])
    uart.rx_pending = deque(tuple(pair) for pair in uart_state["rx_pending"])
    uart.rx_irq_enabled = uart_state["rx_irq_enabled"]
    uart.tx_chars = uart_state["tx_chars"]
    uart.rx_delivered = uart_state["rx_delivered"]
    uart.irqs = uart_state["irqs"]
    uart.next_event = uart_state["next_event"]

    timer_state = state["timer"]
    timer = memory.timer
    timer.interval = timer_state["interval"]
    timer.enabled = timer_state["enabled"]
    timer.periodic = timer_state["periodic"]
    timer.fires = timer_state["fires"]
    timer.next_event = timer_state["next_event"]

    disk_state = state["disk"]
    disk = memory.disk
    disk.sector = disk_state["sector"]
    disk.address = disk_state["address"]
    disk.busy = disk_state["busy"]
    disk.done = disk_state["done"]
    disk._command = disk_state["command"]
    disk.reads = disk_state["reads"]
    disk.writes = disk_state["writes"]
    disk.sectors = {int(number): list(image)
                    for number, image in disk_state["sectors"].items()}
    disk.next_event = disk_state["next_event"]


def _memory_state(memory) -> Dict[str, Any]:
    """Serialize a :class:`~repro.ecache.memory.MemorySystem` (spaces,
    console, ICU, MMU, scheduled devices).  ``write_listeners`` and
    ``alarm_listeners`` are wiring, not state."""
    return {
        "system": sorted(memory.system._words.items()),
        "user": sorted(memory.user._words.items()),
        "console": {
            "values": list(memory.console.values),
            "text": memory.console.text,
        },
        "icu": {"pending": memory.icu.pending},
        "devices": _device_state(memory),
        "mmu": {
            "enabled": memory.mmu.enabled,
            "resident": sorted(memory.mmu.resident),
            "fault_address": memory.mmu.fault_address,
            "faults": memory.mmu.faults,
        },
    }


def _restore_memory(memory, state: Dict[str, Any]) -> None:
    memory.system._words.clear()
    memory.system._words.update(
        {int(addr): word for addr, word in state["system"]})
    memory.user._words.clear()
    memory.user._words.update(
        {int(addr): word for addr, word in state["user"]})
    memory.console.values = list(state["console"]["values"])
    memory.console.text = state["console"]["text"]
    memory.icu.pending = state["icu"]["pending"]
    _restore_devices(memory, state["devices"])
    memory.mmu.enabled = state["mmu"]["enabled"]
    memory.mmu.resident = set(state["mmu"]["resident"])
    memory.mmu.fault_address = state["mmu"]["fault_address"]
    memory.mmu.faults = state["mmu"]["faults"]
    # republish the device alarm so the owning pipeline's cached copy
    # reflects the restored schedules rather than the pre-restore ones
    memory.notify_alarm()


def _coproc_state(coprocessors) -> Dict[str, Any]:
    from repro.coproc.fpu import Fpu, float_to_word

    slots: Dict[str, Any] = {}
    for number, coprocessor in sorted(coprocessors._slots.items()):
        if not isinstance(coprocessor, Fpu):
            raise CheckpointError(
                f"coprocessor slot {number} "
                f"({type(coprocessor).__name__}) is not snapshottable")
        slots[str(number)] = {
            "kind": "fpu",
            "regs": [float_to_word(value) for value in coprocessor.regs],
            "status": coprocessor.status,
            "op_count": coprocessor.op_count,
        }
    return {
        "operations": coprocessors.operations,
        "data_transfers": coprocessors.data_transfers,
        "fault_busy_ops": coprocessors.fault_busy_ops,
        "fault_busy_stall": coprocessors.fault_busy_stall,
        "fault_busy_events": coprocessors.fault_busy_events,
        "slots": slots,
    }


def _restore_coproc(coprocessors, state: Dict[str, Any]) -> None:
    from repro.coproc.fpu import word_to_float

    live = {str(number) for number in coprocessors._slots}
    saved = set(state["slots"])
    if live != saved:
        raise SnapshotConfigError(
            f"coprocessor slots differ: snapshot has {sorted(saved)}, "
            f"machine has {sorted(live)} (attach the same coprocessors "
            "before restoring)")
    coprocessors.operations = state["operations"]
    coprocessors.data_transfers = state["data_transfers"]
    coprocessors.fault_busy_ops = state["fault_busy_ops"]
    coprocessors.fault_busy_stall = state["fault_busy_stall"]
    coprocessors.fault_busy_events = state["fault_busy_events"]
    for number, slot_state in state["slots"].items():
        fpu = coprocessors._slots[int(number)]
        fpu.regs = [word_to_float(word) for word in slot_state["regs"]]
        fpu.status = slot_state["status"]
        fpu.op_count = slot_state["op_count"]


def _node_state(machine) -> Dict[str, Any]:
    """Per-node state: everything but the (possibly shared) memory."""
    return {
        "pipeline": _pipeline_state(machine.pipeline),
        "icache": _icache_state(machine.icache),
        "ecache": _ecache_state(machine.ecache),
        "coproc": _coproc_state(machine.coprocessors),
    }


def _restore_node(machine, state: Dict[str, Any]) -> None:
    _restore_icache(machine.icache, state["icache"])
    _restore_ecache(machine.ecache, state["ecache"])
    _restore_coproc(machine.coprocessors, state["coproc"])
    _restore_pipeline(machine.pipeline, state["pipeline"])


# --------------------------------------------------------- machine level
def machine_signature(machine) -> Dict[str, Any]:
    """One machine's whole state: :func:`machine_state`'s body, without
    the format/kind/config header or the quiescence check, so it also
    describes a machine mid-run.  Every fast-path check compares it
    (the jit and checkpoint oracles, the checkpoint and devices
    campaigns, the bench campaign's jit section); a fast path that ends
    with the right registers but the wrong latch, LRU order, device
    schedule or cycle count differs here."""
    return {"memory": _memory_state(machine.memory), **_node_state(machine)}


def state_diff(want: Any, got: Any, limit: int = 8) -> List[Dict[str, Any]]:
    """The first ``limit`` paths where two states differ, in document
    order, each as ``{"path", "want", "got"}``, e.g.
    ``pipeline.pc.chain[1]`` or ``memory.system[412]`` (an ``(address,
    word)`` pair: tuples are leaves).  Walks dicts with equal keys and
    lists; a list longer on one side also reports its tail,
    ``path[n:]``.  Call it only once ``want != got``, so the passing
    path costs one ``==``."""
    diffs: List[Dict[str, Any]] = []

    def walk(path: str, left: Any, right: Any) -> None:
        if len(diffs) >= limit or left == right:
            return
        if (isinstance(left, dict) and isinstance(right, dict)
                and left.keys() == right.keys()):
            for key in left:
                walk(f"{path}.{key}" if path else key, left[key], right[key])
        elif isinstance(left, list) and isinstance(right, list):
            for index, pair in enumerate(zip(left, right)):
                walk(f"{path}[{index}]", *pair)
            common = min(len(left), len(right))
            if len(left) != len(right) and len(diffs) < limit:
                diffs.append({"path": f"{path}[{common}:]",
                              "want": left[common:], "got": right[common:]})
        else:
            diffs.append({"path": path, "want": left, "got": right})

    walk("", want, got)
    return diffs


def machine_state(machine) -> Dict[str, Any]:
    """Capture one quiescent :class:`~repro.core.processor.Machine` as a
    JSON-serializable dict: a format/kind/config header, then
    :func:`machine_signature`.  Raises :class:`CheckpointError` if the
    pipe is not quiescent (call :func:`drain_machine` first, or use
    ``Machine.snapshot()`` which drains for you)."""
    if not machine.pipeline.quiescent:
        raise CheckpointError(
            "snapshot requires a quiescent pipeline; drain first")
    return {
        "format": FORMAT,
        "kind": "machine",
        "config": config_fingerprint(machine.config),
        **machine_signature(machine),
    }


def _validate_header(state: Dict[str, Any], kind: str, config) -> None:
    if not isinstance(state, dict) or "format" not in state:
        raise SnapshotFormatError("snapshot has no format key")
    if state["format"] != FORMAT:
        raise SnapshotFormatError(
            f"snapshot format {state['format']!r} is not the supported "
            f"format {FORMAT}")
    if state.get("kind") != kind:
        raise SnapshotFormatError(
            f"snapshot kind {state.get('kind')!r} cannot restore a "
            f"{kind!r}")
    if state.get("config") != config_fingerprint(config):
        raise SnapshotConfigError(
            "snapshot was taken under a different machine configuration; "
            "restore requires an identically configured machine")


def restore_machine(machine, state: Dict[str, Any]) -> None:
    """Restore a captured state into ``machine`` (validating first).

    The machine must be built with the same :class:`MachineConfig` and
    the same coprocessor slots as the snapshot's source; anything else
    raises :class:`SnapshotFormatError` / :class:`SnapshotConfigError`
    *before* any machine state is modified.
    """
    _validate_header(state, "machine", machine.config)
    # slot mismatch is checked up front so it cannot strand a machine
    # with restored memory but unrestored coprocessors
    live = {str(number) for number in machine.coprocessors._slots}
    if live != set(state["coproc"]["slots"]):
        raise SnapshotConfigError(
            f"coprocessor slots differ: snapshot has "
            f"{sorted(state['coproc']['slots'])}, machine has "
            f"{sorted(live)} (attach the same coprocessors first)")
    _restore_memory(machine.memory, state["memory"])
    _restore_node(machine, state)


# ----------------------------------------------------------- multi level
def multi_state(system) -> Dict[str, Any]:
    """Capture a quiescent :class:`~repro.multi.system.MultiMachine`:
    the shared memory once, each node's private state, and the bus."""
    for index, machine in enumerate(system.machines):
        if not machine.pipeline.quiescent:
            raise CheckpointError(
                f"snapshot requires quiescent nodes; node {index} is "
                "mid-squash or mid-stall (drain first)")
    return {
        "format": FORMAT,
        "kind": "multi",
        "config": config_fingerprint(system.config),
        "nodes": len(system.machines),
        "bus_latency": system.bus_latency,
        "invalidation": system.invalidation,
        "memory": _memory_state(system.memory),
        "machines": [_node_state(machine) for machine in system.machines],
        "bus": dataclasses.asdict(system.bus),
        "cycles": system.cycles,
        "bus_owner": system._bus_owner,
        "bus_release_cycle": system._bus_release_cycle,
    }


def restore_multi(system, state: Dict[str, Any]) -> None:
    """Restore a multi snapshot into ``system`` (validating first)."""
    _validate_header(state, "multi", system.config)
    if state["nodes"] != len(system.machines):
        raise SnapshotConfigError(
            f"snapshot has {state['nodes']} nodes, system has "
            f"{len(system.machines)}")
    if (state["bus_latency"] != system.bus_latency
            or state["invalidation"] != system.invalidation):
        raise SnapshotConfigError(
            "snapshot bus parameters (latency/invalidation) differ from "
            "the live system")
    _restore_memory(system.memory, state["memory"])
    for machine, node_state in zip(system.machines, state["machines"]):
        _restore_node(machine, node_state)
    bus = state["bus"]
    system.bus.acquisitions = bus["acquisitions"]
    system.bus.contention_cycles = bus["contention_cycles"]
    system.bus.invalidations = bus["invalidations"]
    system.cycles = state["cycles"]
    system._bus_owner = state["bus_owner"]
    system._bus_release_cycle = state["bus_release_cycle"]
    system._store_origin = None


__all__ = [
    "FORMAT",
    "DRAIN_BOUND",
    "CheckpointError",
    "SnapshotIntegrityError",
    "SnapshotFormatError",
    "SnapshotConfigError",
    "QuiescenceTimeout",
    "config_fingerprint",
    "drain_machine",
    "drain_multi",
    "machine_signature",
    "state_diff",
    "machine_state",
    "restore_machine",
    "multi_state",
    "restore_multi",
]
