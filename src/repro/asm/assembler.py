"""Two-pass textual assembler for the MIPS-X reproduction ISA.

Syntax example::

    ; comments start with ';' or '#'
    _start:
        li    sp, 0x4000
        la    t0, table
        ld    t1, 0(t0)
        ld    t2, 1(t0)
        nop                  ; load delay slot (software interlock!)
        add   t3, t1, t2
        beqsq t3, r0, done   ; squashing branch, two delay slots follow
        nop
        nop
        st    t3, result
    done:
        halt

    table:  .word 1, 2
    result: .space 1

The assembler is deliberately *not* clever: it performs no scheduling and no
delay-slot filling -- that is the reorganizer's job (:mod:`repro.reorg`), as
on the real machine.  The only conveniences are pseudo-instructions
(``nop``, ``mov``, ``li``, ``la``, ``br``, ``jmp``, ``call``, ``ret``) which
expand to fixed short sequences before layout.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple, Union

from repro.asm.unit import AsmUnit, AssemblyError, Program
from repro.isa import instruction as I
from repro.isa.opcodes import Opcode, SpecialReg
from repro.isa.registers import REGISTER_ALIASES

_BRANCH_MNEMONICS = {
    "beq": Opcode.BEQ,
    "bne": Opcode.BNE,
    "blt": Opcode.BLT,
    "ble": Opcode.BLE,
    "bgt": Opcode.BGT,
    "bge": Opcode.BGE,
}

_COMPUTE3 = {
    "add": I.add,
    "sub": I.sub,
    "and": I.and_,
    "or": I.or_,
    "xor": I.xor,
    "mstep": I.mstep,
    "dstep": I.dstep,
}

_SHIFTS = {"sll": I.sll, "srl": I.srl, "sra": I.sra, "rotl": I.rotl}

_MEMORY = {"ld": I.ld, "st": I.st, "ldf": I.ldf, "stf": I.stf}

#: each mnemonic's operands, in order: the count is checked before the
#: operands are parsed, and a wrong count names what was expected
_OPERANDS = {
    **{name: ("rs1", "rs2", "target") for name in _BRANCH_MNEMONICS},
    **{name: ("rd", "rs1", "rs2") for name in _COMPUTE3},
    **{name: ("rd", "rs", "shamt") for name in _SHIFTS},
    **{name: ("reg", "offset(base)") for name in ("ld", "st")},
    **{name: ("freg", "offset(base)") for name in ("ldf", "stf")},
    **{name: ("rd", "rs") for name in ("not", "mov")},
    "li": ("rd", "value"),
    "la": ("rd", "symbol"),
    "addi": ("rd", "rs", "imm"),
    "jspci": ("rd", "offset(base)"),
    **{name: ("target",) for name in ("br", "jmp", "call")},
    "cop": ("payload(base)",),
    **{name: ("rd", "payload(base)") for name in ("movtoc", "movfrc")},
    "movfrs": ("rd", "special"),
    "movtos": ("special", "rs"),
    **{name: () for name in ("ret", "nop", "trap", "jpc", "jpcrs", "halt")},
}

_MEM_OPERAND = re.compile(r"^(?P<imm>[^()]*)\((?P<reg>[^()]+)\)$")
_LABEL_DEF = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_SYMBOL = re.compile(r"^[A-Za-z_.$][\w.$]*$")


class AsmSyntaxError(AssemblyError):
    """Source-level syntax error with line information."""

    def __init__(self, message: str, line_number: int, line: str):
        super().__init__(f"line {line_number}: {message}: {line.strip()!r}")
        self.line_number = line_number


def _parse_int(text: str) -> int:
    return int(text.strip(), 0)


def _is_int(text: str) -> bool:
    try:
        _parse_int(text)
        return True
    except ValueError:
        return False


def _reg(text: str) -> int:
    key = text.strip().lower()
    if key not in REGISTER_ALIASES:
        raise ValueError(f"unknown register {text.strip()!r}")
    return REGISTER_ALIASES[key]


def _freg(text: str) -> int:
    """FPU register: 'f0'..'f31' (also accepts a bare number)."""
    key = text.strip().lower()
    if key.startswith("f") and key[1:].isdigit():
        number = int(key[1:])
    elif key.isdigit():
        number = int(key)
    else:
        raise ValueError(f"unknown FPU register {text.strip()!r}")
    if not 0 <= number < 32:
        raise ValueError(f"FPU register out of range: {text.strip()!r}")
    return number


def _split_operands(text: str) -> List[str]:
    parts = [part.strip() for part in text.split(",")]
    return [part for part in parts if part]


def _parse_address(text: str) -> Tuple[Union[int, str], int, int]:
    """Parse ``imm(reg)`` / ``symbol(reg)`` / ``imm`` / ``symbol``.

    Returns ``(imm_or_symbol, addend, base_register)``.
    """
    text = text.strip()
    match = _MEM_OPERAND.match(text)
    base = 0
    if match:
        base = _reg(match.group("reg"))
        text = match.group("imm").strip()
    if not text:
        return 0, 0, base
    if _is_int(text):
        return _parse_int(text), 0, base
    addend = 0
    if "+" in text:
        symbol, _, rest = text.partition("+")
        symbol, addend = symbol.strip(), _parse_int(rest)
    elif text.count("-") == 1 and not text.startswith("-"):
        symbol, _, rest = text.partition("-")
        symbol, addend = symbol.strip(), -_parse_int(rest)
    else:
        symbol = text
    if not _SYMBOL.match(symbol):
        raise ValueError(f"bad address operand {text!r}")
    return symbol, addend, base


def expand_li(rd: int, value: int) -> List[I.Instruction]:
    """Expand ``li rd, value`` for any 32-bit value.

    Small constants are a single ``addi rd, r0, value`` -- the paper's
    "loading immediate values by doing an add immediate to Register 0".
    Larger ones take the classic three-instruction RISC sequence
    (load high part, shift, add low part).
    """
    value &= 0xFFFFFFFF
    signed = value - (1 << 32) if value & 0x80000000 else value
    if -(1 << 16) <= signed < (1 << 16):
        return [I.addi(rd, 0, signed)]
    low = signed & 0xFFFF
    if low >= 0x8000:
        low -= 0x10000
    high = (signed - low) >> 16
    return [I.addi(rd, 0, high), I.sll(rd, rd, 16), I.addi(rd, rd, low)]


class Assembler:
    """Parse assembly text into an :class:`AsmUnit` or a :class:`Program`."""

    def parse(self, text: str) -> AsmUnit:
        unit = AsmUnit()
        for line_number, raw in enumerate(text.splitlines(), start=1):
            line = raw.split(";")[0].split("#")[0].strip()
            while True:
                match = _LABEL_DEF.match(line)
                if not match:
                    break
                unit.label(match.group(1))
                line = line[match.end():].strip()
            if not line:
                continue
            try:
                self._parse_statement(unit, line)
            except (ValueError, KeyError) as exc:
                raise AsmSyntaxError(str(exc), line_number, raw) from exc
        return unit

    def assemble(self, text: str, base: int = 0,
                 entry: Optional[str] = None) -> Program:
        return self.parse(text).assemble(base=base, entry=entry)

    # ----------------------------------------------------------- statements
    def _parse_statement(self, unit: AsmUnit, line: str) -> None:
        mnemonic, _, rest = line.partition(" ")
        mnemonic = mnemonic.lower()
        rest = rest.strip()
        if mnemonic.startswith("."):
            self._parse_directive(unit, mnemonic, rest)
            return
        operands = _split_operands(rest)
        self._parse_instruction(unit, mnemonic, operands, line)

    def _parse_directive(self, unit: AsmUnit, name: str, rest: str) -> None:
        if name == ".org":
            unit.org(_parse_int(rest))
        elif name == ".word":
            values: List[Union[int, str]] = []
            for part in _split_operands(rest):
                values.append(_parse_int(part) if _is_int(part) else part)
            unit.word(*values)
        elif name == ".space":
            unit.space(_parse_int(rest))
        elif name == ".global":
            pass  # accepted for familiarity; all symbols are global
        else:
            raise ValueError(f"unknown directive {name!r}")

    def _parse_instruction(self, unit: AsmUnit, mnemonic: str,
                           ops: List[str], line: str) -> None:
        written = mnemonic
        squash = False
        if mnemonic.endswith("sq") and mnemonic[:-2] in _BRANCH_MNEMONICS:
            squash = True
            mnemonic = mnemonic[:-2]
        wanted = _OPERANDS.get(mnemonic)
        if wanted is not None and len(ops) != len(wanted):
            expected = (f"{len(wanted)} operand{'s' * (len(wanted) != 1)} "
                        f"({', '.join(wanted)})" if wanted else "no operands")
            raise ValueError(f"{written} takes {expected}, got {len(ops)}")

        if mnemonic in _BRANCH_MNEMONICS:
            self._emit_branch(unit, _BRANCH_MNEMONICS[mnemonic], ops, squash, line)
        elif mnemonic in _COMPUTE3:
            rd, rs1, rs2 = (_reg(op) for op in ops)
            unit.emit(_COMPUTE3[mnemonic](rd, rs1, rs2), source=line)
        elif mnemonic in _SHIFTS:
            unit.emit(_SHIFTS[mnemonic](_reg(ops[0]), _reg(ops[1]),
                                        _parse_int(ops[2])), source=line)
        elif mnemonic == "not":
            unit.emit(I.not_(_reg(ops[0]), _reg(ops[1])), source=line)
        elif mnemonic == "mov":
            unit.emit(I.mov(_reg(ops[0]), _reg(ops[1])), source=line)
        elif mnemonic == "li":
            for instr in expand_li(_reg(ops[0]), _parse_int(ops[1])):
                unit.emit(instr, source=line)
        elif mnemonic == "la":
            symbol, addend, base = _parse_address(ops[1])
            if isinstance(symbol, int):
                raise ValueError("la expects a symbol operand")
            unit.emit(I.addi(_reg(ops[0]), base, addend), target=symbol,
                      source=line)
        elif mnemonic == "addi":
            unit.emit(I.addi(_reg(ops[0]), _reg(ops[1]), _parse_int(ops[2])),
                      source=line)
        elif mnemonic in _MEMORY:
            self._emit_memory(unit, mnemonic, ops, line)
        elif mnemonic == "jspci":
            imm, addend, base = _parse_address(ops[1])
            if isinstance(imm, str):
                unit.emit(I.jspci(_reg(ops[0]), base, addend), target=imm,
                          source=line)
            else:
                unit.emit(I.jspci(_reg(ops[0]), base, imm), source=line)
        elif mnemonic in ("br", "jmp"):
            self._emit_branch(unit, Opcode.BEQ, ["r0", "r0", ops[0]], False, line)
        elif mnemonic == "call":
            imm, addend, base = _parse_address(ops[0])
            if isinstance(imm, str):
                unit.emit(I.jspci(2, base, addend), target=imm, source=line)
            else:
                unit.emit(I.jspci(2, base, imm), source=line)
        elif mnemonic == "ret":
            unit.emit(I.jspci(0, 2, 0), source=line)
        elif mnemonic == "cop":
            payload, addend, base = _parse_address(ops[0])
            if isinstance(payload, str):
                raise ValueError("cop payload must be numeric")
            unit.emit(I.cop(base, payload + addend), source=line)
        elif mnemonic in ("movtoc", "movfrc"):
            payload, addend, base = _parse_address(ops[1])
            if isinstance(payload, str):
                raise ValueError(f"{mnemonic} payload must be numeric")
            ctor = I.movtoc if mnemonic == "movtoc" else I.movfrc
            unit.emit(ctor(_reg(ops[0]), base, payload + addend), source=line)
        elif mnemonic == "movfrs":
            unit.emit(I.movfrs(_reg(ops[0]), SpecialReg[ops[1].upper()]),
                      source=line)
        elif mnemonic == "movtos":
            unit.emit(I.movtos(SpecialReg[ops[0].upper()], _reg(ops[1])),
                      source=line)
        elif mnemonic == "nop":
            unit.emit(I.nop(), source=line)
        elif mnemonic == "trap":
            unit.emit(I.trap(), source=line)
        elif mnemonic == "jpc":
            unit.emit(I.jpc(), source=line)
        elif mnemonic == "jpcrs":
            unit.emit(I.jpcrs(), source=line)
        elif mnemonic == "halt":
            unit.emit(I.halt(), source=line)
        else:
            raise ValueError(f"unknown mnemonic {mnemonic!r}")

    def _emit_branch(self, unit: AsmUnit, opcode: Opcode, ops: List[str],
                     squash: bool, line: str) -> None:
        rs1, rs2 = _reg(ops[0]), _reg(ops[1])
        target = ops[2].strip()
        if _is_int(target):
            unit.emit(I.branch(opcode, rs1, rs2, _parse_int(target), squash),
                      source=line)
        else:
            unit.emit(I.branch(opcode, rs1, rs2, 0, squash), target=target,
                      source=line)

    def _emit_memory(self, unit: AsmUnit, mnemonic: str, ops: List[str],
                     line: str) -> None:
        ctor = _MEMORY[mnemonic]
        reg = _freg(ops[0]) if mnemonic in ("ldf", "stf") else _reg(ops[0])
        imm, addend, base = _parse_address(ops[1])
        if isinstance(imm, str):
            unit.emit(ctor(reg, base, addend), target=imm, source=line)
        else:
            unit.emit(ctor(reg, base, imm + addend), source=line)


def assemble(text: str, base: int = 0, entry: Optional[str] = None) -> Program:
    """Assemble source text into a :class:`Program` (module-level shortcut)."""
    return Assembler().assemble(text, base=base, entry=entry)


def parse(text: str) -> AsmUnit:
    """Parse source text into a symbolic :class:`AsmUnit`."""
    return Assembler().parse(text)
