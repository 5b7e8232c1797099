"""Abstract values and machine states for the k86 interpreter.

The domain is deliberately small — exactly rich enough to prove the
three properties the client passes need:

* **stack discipline** — ``sp`` is tracked as a concrete byte offset
  relative to the function's entry (0 = pointing at the return
  address), or ``None`` once any path makes it unknowable;
* **register provenance** — every register holds a :data:`Value`: the
  value it had at entry (``ENTRY``, how we prove callee-saved
  registers survive), a compile-time constant (``CONST``), the address
  of a data symbol (``DATAPTR``, the seed of every pointer-escape
  witness), an address into the current frame (``STACKADDR``), or
  ``UNKNOWN``;
* **frame contents** — a map from entry-relative stack offsets to
  abstract values, so argument-slot reads (``fp+8+4i``) and pointer
  spills are visible.

Joins are pointwise; two different values join to ``UNKNOWN`` and two
different stack depths join to unknown-``sp``.  Values and states are
plain tuples, so the fixpoint builds, joins and compares them with no
per-object constructor:

* a value is ``(kind, value, symbol)``, with ``kind`` selecting which
  payload is live;
* a state is ``(sp, regs, stack)``: ``regs`` is a tuple of one value
  per register, and ``stack`` is a dict from entry-relative byte
  offsets to values.  A state is never changed once built (a transfer
  copies the part it writes), so states compare by value and may be
  shared.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.arch.isa import NUM_REGISTERS

#: Value kinds
UNKNOWN = "unknown"
ENTRY = "entry"          # the value register ``reg`` held at entry
CONST = "const"          # a compile-time constant (``value``)
DATAPTR = "dataptr"      # address of data symbol ``symbol`` (+ offset)
STACKADDR = "stackaddr"  # entry-sp-relative address (``value``)

#: one abstract value: ``(kind, value, symbol)``
Value = Tuple[str, int, str]
#: registers, one value per register number
Regs = Tuple[Value, ...]
#: frame slots: entry-relative byte offset -> value
Stack = Dict[int, Value]
#: one program point: ``(sp, regs, stack)``
State = Tuple[Optional[int], Regs, Stack]

TOP: Value = (UNKNOWN, 0, "")


def entry_value(reg: int) -> Value:
    return (ENTRY, reg, "")


def const(value: int) -> Value:
    return (CONST, value & 0xFFFFFFFF, "")


def dataptr(symbol: str, offset: int = 0) -> Value:
    return (DATAPTR, offset, symbol)


def stackaddr(offset: int) -> Value:
    return (STACKADDR, offset, "")


def join_values(a: Value, b: Value) -> Value:
    return a if a == b else TOP


def signed32(value: int) -> int:
    """IMM32 fields decode unsigned; interpret as two's complement."""
    value &= 0xFFFFFFFF
    return value - 0x100000000 if value >= 0x80000000 else value


#: every register holding its own entry value
ENTRY_REGS: Regs = tuple(entry_value(i) for i in range(NUM_REGISTERS))


def entry_state() -> State:
    """The state at a function's first instruction: ``sp`` 0 (pointing
    at the return address), every register its entry value, no slots
    tracked."""
    return (0, ENTRY_REGS, {})


def join_states(a: State, b: State) -> State:
    """Pointwise join.  A slot survives only where both sides hold the
    same known value: a slot tracked on one side only, or holding
    ``UNKNOWN`` on both (an explicit ``UNKNOWN`` stored by a push or a
    spill included), is dropped."""
    a_sp, a_regs, a_stack = a
    b_sp, b_regs, b_stack = b
    regs = a_regs if a_regs == b_regs else tuple(
        [x if x == y else TOP for x, y in zip(a_regs, b_regs)])
    if a_stack == b_stack and TOP not in a_stack.values():
        stack = a_stack
    else:
        stack = {offset: value for offset, value in a_stack.items()
                 if value != TOP and b_stack.get(offset) == value}
    sp = a_sp if a_sp == b_sp else None
    if sp == a_sp and regs is a_regs and stack is a_stack:
        return a
    return (sp, regs, stack)


def arg_slot_index(offset: int) -> Optional[int]:
    """Argument index stored at entry-relative stack ``offset``.

    The caller pushed the arguments just above the return address, so
    argument ``i`` sits at ``4 + 4*i``; anything at or below the
    return address is frame-local.
    """
    if offset >= 4 and (offset - 4) % 4 == 0:
        return (offset - 4) // 4
    return None
