"""Tests for the assembler, symbolic units, and disassembler."""

import pytest

from repro.asm import (
    AsmSyntaxError,
    AssemblyError,
    assemble,
    disassemble_word,
    listing,
)
from repro.asm.assembler import expand_li
from repro.isa import Opcode, decode


class TestBasicAssembly:
    def test_single_instruction(self):
        program = assemble("add t0, t1, t2")
        assert len(program.image) == 1
        instr = decode(program.image[0])
        assert instr.funct.name == "ADD"

    def test_labels_resolve_to_addresses(self):
        program = assemble(
            """
            _start: nop
            loop:   nop
                    br loop
            """
        )
        assert program.symbols["_start"] == 0
        assert program.symbols["loop"] == 1

    def test_branch_displacement_is_relative(self):
        program = assemble(
            """
            loop: nop
                  nop
                  beq r0, r0, loop
            """
        )
        branch = program.listing[2]
        assert branch.imm == -2

    def test_forward_branch(self):
        program = assemble(
            """
            beq r0, r0, done
            nop
            nop
            done: halt
            """
        )
        assert program.listing[0].imm == 3

    def test_squash_suffix(self):
        program = assemble("loop: beqsq t0, r0, loop")
        assert program.listing[0].squash

    def test_memory_operand_forms(self):
        program = assemble(
            """
            ld t0, 4(sp)
            ld t1, var
            ld t2, var+2(gp)
            st t0, -1(sp)
            var: .word 42
            """
        )
        assert program.listing[0].imm == 4 and program.listing[0].src1 == 1
        assert program.listing[1].imm == 4  # address of var
        assert program.listing[2].imm == 6 and program.listing[2].src1 == 31
        assert program.listing[3].imm == -1

    def test_word_directive_values_and_symbols(self):
        program = assemble(
            """
            halt
            table: .word 1, 2, 0x10, entry
            entry: nop
            """
        )
        table = program.symbols["table"]
        assert [program.image[table + k] for k in range(4)] == [
            1, 2, 16, program.symbols["entry"]]

    def test_space_reserves_zeroed_words(self):
        program = assemble("halt\nbuf: .space 3")
        buf = program.symbols["buf"]
        assert all(program.image[buf + k] == 0 for k in range(3))

    def test_org_directive(self):
        program = assemble(".org 0x100\nhalt")
        assert 0x100 in program.image

    def test_entry_defaults_to_start_label(self):
        program = assemble("nop\n_start: halt")
        assert program.entry == 1

    def test_comments_and_blank_lines(self):
        program = assemble("; header\n\nnop ; trailing\n# another\nhalt")
        assert len(program.image) == 2


class TestPseudoInstructions:
    def test_li_small(self):
        program = assemble("li t0, 42")
        assert len(program.image) == 1
        assert program.listing[0].opcode == Opcode.ADDI

    def test_li_negative_small(self):
        program = assemble("li t0, -30000")
        assert len(program.image) == 1

    def test_li_large_is_three_instructions(self):
        program = assemble("li t0, 0x12345678")
        assert len(program.image) == 3

    @pytest.mark.parametrize("value", [
        0, 1, -1, 0x7FFF, 0x8000, -0x8000, 0xFFFF, 0x10000, 0x12345678,
        -0x12345678, 0x7FFFFFFF, -0x80000000, 0xFFFFFFFF])
    def test_expand_li_semantics(self, value):
        """The expansion must compute exactly the 32-bit value."""
        acc = {}

        def signed(x):
            x &= 0xFFFFFFFF
            return x - (1 << 32) if x & 0x80000000 else x

        reg = 10
        current = 0
        for instr in expand_li(reg, value):
            if instr.opcode == Opcode.ADDI:
                base = current if instr.src1 == reg else 0
                current = (signed(base) + instr.imm) & 0xFFFFFFFF
            else:  # sll
                current = (current << instr.shamt) & 0xFFFFFFFF
        acc[reg] = current
        assert acc[reg] == value & 0xFFFFFFFF

    def test_mov_is_or_with_r0(self):
        instr = assemble("mov t0, t1").listing[0]
        assert instr.funct.name == "OR" and instr.src2 == 0

    def test_call_and_ret(self):
        program = assemble(
            """
            _start: call f
                    nop
                    nop
                    halt
            f:      ret
            """
        )
        call = program.listing[0]
        assert call.opcode == Opcode.JSPCI and call.src2 == 2
        assert call.imm == program.symbols["f"]
        ret = program.listing[program.symbols["f"]]
        assert ret.opcode == Opcode.JSPCI and ret.src1 == 2 and ret.src2 == 0

    def test_la_loads_symbol_address(self):
        program = assemble("la t0, buf\nhalt\nbuf: .space 1")
        assert program.listing[0].imm == program.symbols["buf"]

    def test_jmp_alias(self):
        program = assemble("_start: jmp _start")
        assert program.listing[0].opcode == Opcode.BEQ


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AsmSyntaxError):
            assemble("frobnicate t0, t1")

    def test_unknown_register(self):
        with pytest.raises(AsmSyntaxError):
            assemble("add t0, t1, t99")

    def test_undefined_symbol(self):
        with pytest.raises(AssemblyError):
            assemble("br nowhere")

    def test_duplicate_label(self):
        with pytest.raises(AssemblyError):
            assemble("a: nop\na: nop")

    def test_offset_out_of_range(self):
        with pytest.raises(AssemblyError):
            assemble("ld t0, 100000(r0)")

    def test_error_carries_line_number(self):
        with pytest.raises(AsmSyntaxError) as info:
            assemble("nop\nbogus x")
        assert "line 2" in str(info.value)


class TestSpecialForms:
    def test_movfrs_movtos(self):
        program = assemble("movfrs t0, psw\nmovtos md, t0")
        assert program.listing[0].shamt == 0
        assert program.listing[1].shamt == 2

    def test_coprocessor_forms(self):
        program = assemble(
            """
            cop 0x29(r0)
            movtoc t0, 0x31(r0)
            movfrc t1, 0x51(t2)
            """
        )
        assert program.listing[0].opcode == Opcode.COP
        assert program.listing[1].opcode == Opcode.MOVTOC
        assert program.listing[2].opcode == Opcode.MOVFRC
        assert program.listing[2].src1 == 12  # t2

    def test_fpu_register_operands(self):
        program = assemble("ldf f3, 0(sp)\nstf f15, 1(sp)")
        assert program.listing[0].src2 == 3
        assert program.listing[1].src2 == 15


class TestDisassembler:
    def test_round_trip_text(self):
        source = """
        _start: li t0, 7
                add t1, t0, t0
                beqsq t1, r0, _start
                nop
                nop
                halt
        """
        program = assemble(source)
        for address, instr in program.listing.items():
            text = disassemble_word(program.image[address])
            assert text == str(instr)

    def test_data_words_render_as_word_directive(self):
        assert disassemble_word(0xFFFFFFFF).startswith(".word")

    def test_listing_contains_symbols(self):
        program = assemble("_start: nop\nhalt")
        text = listing(program)
        assert "_start:" in text and "nop" in text


class TestProgramProperties:
    def test_code_size_excludes_data(self):
        program = assemble("nop\nhalt\ntab: .word 1, 2, 3")
        assert program.code_size == 2
        assert program.size == 5

    def test_reassembly_is_deterministic(self):
        source = "_start: li t0, 99\nbr _start"
        assert assemble(source).image == assemble(source).image
