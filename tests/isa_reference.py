"""An in-order architectural interpreter over ``repro.isa``.

The reference model for the cycle simulator: it executes one decoded
instruction at a time against a flat register file and a flat word
memory.  It has no pipeline, no caches and no bus, and it shares no
execution code with ``repro.cpu`` — only the decoder and the
instruction definitions.  It therefore defines nothing but
architectural state: registers and memory after each retired
instruction.

CSR reads are timing-dependent (cycle and stall counters) and are not
modelled; the only CSR with an architectural role here is ``TESTWIN``,
whose every change is recorded as a synchronisation point.
"""

from __future__ import annotations

from repro.isa.encoding import decode
from repro.isa.instructions import LINK_REG, Csr, Format, Mnemonic

M32 = 0xFFFF_FFFF
M64 = (1 << 64) - 1


def _signed(value: int) -> int:
    return value - (1 << 32) if value & 0x8000_0000 else value


def _divt(a: int, b: int) -> int:
    if b == 0:
        return 0
    quotient = abs(_signed(a)) // abs(_signed(b))
    return -quotient if (_signed(a) < 0) != (_signed(b) < 0) else quotient


def _satadd(a: int, b: int) -> int:
    return max(-(1 << 31), min((1 << 31) - 1, _signed(a) + _signed(b)))


#: Register-register operations on 32-bit unsigned operands.
R3_OPS = {
    Mnemonic.ADD: lambda a, b: a + b,
    Mnemonic.SUB: lambda a, b: a - b,
    Mnemonic.AND: lambda a, b: a & b,
    Mnemonic.OR: lambda a, b: a | b,
    Mnemonic.XOR: lambda a, b: a ^ b,
    Mnemonic.NOR: lambda a, b: ~(a | b),
    Mnemonic.SLT: lambda a, b: int(_signed(a) < _signed(b)),
    Mnemonic.SLTU: lambda a, b: int(a < b),
    Mnemonic.SLL: lambda a, b: a << (b % 32),
    Mnemonic.SRL: lambda a, b: a >> (b % 32),
    Mnemonic.SRA: lambda a, b: _signed(a) >> (b % 32),
    Mnemonic.MUL: lambda a, b: a * b,
    Mnemonic.MULH: lambda a, b: (_signed(a) * _signed(b)) >> 32,
    Mnemonic.ADDO: lambda a, b: a + b,
    Mnemonic.SUBO: lambda a, b: a - b,
    Mnemonic.MULO: lambda a, b: _signed(a) * _signed(b),
    Mnemonic.SATADD: _satadd,
    Mnemonic.DIVT: _divt,
    Mnemonic.SLLO: lambda a, b: a << (b % 32),
}

#: Register-pair operations on 64-bit unsigned operands (core C only).
WIDE_OPS = {
    Mnemonic.ADD64: lambda a, b: a + b,
    Mnemonic.SUB64: lambda a, b: a - b,
    Mnemonic.AND64: lambda a, b: a & b,
    Mnemonic.OR64: lambda a, b: a | b,
    Mnemonic.XOR64: lambda a, b: a ^ b,
}

#: Register-immediate operations; ``imm`` is the signed 15-bit field.
IMM_OPS = {
    Mnemonic.ADDI: lambda a, imm: a + imm,
    Mnemonic.ANDI: lambda a, imm: a & (imm % (1 << 15)),
    Mnemonic.ORI: lambda a, imm: a | (imm % (1 << 15)),
    Mnemonic.XORI: lambda a, imm: a ^ (imm % (1 << 15)),
    Mnemonic.SLTI: lambda a, imm: int(_signed(a) < imm),
    Mnemonic.SLLI: lambda a, imm: a << (imm % 32),
    Mnemonic.SRLI: lambda a, imm: a >> (imm % 32),
    Mnemonic.SRAI: lambda a, imm: _signed(a) >> (imm % 32),
}

BRANCH_OPS = {
    Mnemonic.BEQ: lambda a, b: a == b,
    Mnemonic.BNE: lambda a, b: a != b,
    Mnemonic.BLT: lambda a, b: _signed(a) < _signed(b),
    Mnemonic.BGE: lambda a, b: _signed(a) >= _signed(b),
    Mnemonic.BLTU: lambda a, b: a < b,
    Mnemonic.BGEU: lambda a, b: a >= b,
}


class ReferenceMachine:
    """Architectural state of one core, advanced one instruction at a time.

    ``history[k]`` is the register file after ``k`` retired instructions;
    ``sync_points`` lists ``(retired, testwin)`` for every ``TESTWIN``
    change, ``retired`` counting the instructions before the ``CSRW``.
    """

    def __init__(self, image: dict[int, int], pc: int):
        self.memory = dict(image)
        self.regs = [0] * 32
        self.pc = pc
        self.retired = 0
        self.halted = False
        self.testwin = 0
        self.history: list[tuple[int, ...]] = [tuple(self.regs)]
        self.sync_points: list[tuple[int, int]] = []

    def load_word(self, address: int) -> int:
        return self.memory.get(address & ~3, 0)

    def _write(self, reg: int, value: int) -> None:
        if reg:
            self.regs[reg] = value & M32

    def _pair(self, reg: int) -> int:
        return self.regs[reg] | self.regs[reg + 1] << 32

    def run(self, limit: int = 100_000) -> None:
        while not self.halted:
            if self.retired >= limit:
                raise RuntimeError(f"no HALT within {limit} instructions")
            self.step()

    def step(self) -> None:
        instr = decode(self.load_word(self.pc))
        m, fmt, regs = instr.mnemonic, instr.spec.format, self.regs
        a, b = regs[instr.rs1], regs[instr.rs2]
        next_pc = (self.pc + 4) & M32
        if m in WIDE_OPS:
            result = WIDE_OPS[m](self._pair(instr.rs1), self._pair(instr.rs2))
            if instr.rd:
                self._write(instr.rd, result)
                self._write(instr.rd + 1, (result & M64) >> 32)
        elif fmt is Format.R3:
            self._write(instr.rd, R3_OPS[m](a, b))
        elif fmt is Format.I:
            self._write(instr.rd, IMM_OPS[m](a, instr.imm))
        elif fmt is Format.LUI:
            self._write(instr.rd, instr.imm << 12)
        elif fmt is Format.LOAD:
            address = (a + instr.imm) & M32
            word = self.load_word(address)
            if m is Mnemonic.LBU:
                word = word >> 8 * (address % 4) & 0xFF
            self._write(instr.rd, word)
            if m is Mnemonic.TAS:
                self.memory[address & ~3] = 1
        elif fmt is Format.STORE:
            address = (a + instr.imm) & M32
            if m is Mnemonic.SW:
                self.memory[address & ~3] = b
            else:
                shift = 8 * (address % 4)
                word = self.load_word(address) & ~(0xFF << shift)
                self.memory[address & ~3] = word | (b & 0xFF) << shift
        elif fmt is Format.BRANCH:
            if BRANCH_OPS[m](a, b):
                next_pc = (self.pc + 4 * instr.imm) & M32
        elif fmt is Format.JUMP:
            if m is Mnemonic.JAL:
                self._write(LINK_REG, self.pc + 4)
            next_pc = 4 * instr.imm
        elif fmt is Format.JR:
            next_pc = a & ~3
        elif fmt is Format.CSRW:
            if instr.csr == Csr.TESTWIN and a & 3 != self.testwin:
                self.testwin = a & 3
                self.sync_points.append((self.retired, self.testwin))
        elif fmt is Format.CSRR:
            raise NotImplementedError("CSR reads are timing-dependent")
        elif m is Mnemonic.HALT:
            self.halted = True
        self.pc = next_pc
        self.retired += 1
        self.history.append(tuple(regs))
