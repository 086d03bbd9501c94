"""Seeded random-program generator for differential fuzzing.

Programs are generated as a :class:`ProgramSpec` — a plain-data
description (register initializers, variable initializers, a list of
body blocks, a debug plan) that renders deterministically to a
:class:`~repro.isa.program.Program` via :func:`build_program`.  The
split matters: the shrinker edits specs, not instruction lists, and
failure artifacts serialize specs as JSON.

Generated programs are **always terminating** and **memory bounded**
by construction:

* control flow is a single bounded outer loop, optional bounded inner
  (countdown) loops per block, and *forward-only* skip branches inside
  a block — there is no indirect control flow (``jmp``/``jsr``/``ret``)
  and no ``trap``/``ctrap`` (a raw app trap is classified differently
  by different backends, which would be a false divergence);
* stores address named data quads, a masked scratch array, or a fixed
  window of stack slots — never computed wild addresses;
* registers r26–r29 are never touched (calling convention), nor are
  r27/r28 (scavenged by the binary rewriter; the register plan below
  keeps clear of both).

Every instruction is marked as a statement start so the single-step
backend observes state at instruction granularity — the granularity at
which the canonical stop sequences of all five backends coincide (see
DESIGN.md, "Differential oracle & fuzzing").

The debug plan attaches either watchpoints **or** breakpoints, never
both: when a breakpoint fires in the same debugger transition as a
watched-value change, single-stepping merges the two stops into one
while trap-per-event backends report two — a genuine mechanism
difference, not a bug, so the oracle does not generate it.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Optional

from repro.isa.builder import CodeBuilder
from repro.isa.program import Program

# -- register plan -----------------------------------------------------------
POOL_REGS = tuple(range(1, 13))  # general-purpose value soup
R_SCRATCH_BASE = 13
R_SCRATCH_IDX = 14
R_TMP = 16  # comparisons, silent-store temporaries
R_SUM_A, R_SUM_B = 17, 18  # self-checking epilogue accumulators
R_INNER = 19  # inner-loop countdown
R_OUTER, R_OUTER_CMP = 20, 21  # outer-loop counter and test

ALU_OPS = ("addq", "subq", "mulq", "and", "bis", "xor", "bic")
SHIFT_OPS = ("sll", "srl", "sra")
CMP_OPS = ("cmpeq", "cmplt", "cmple", "cmpult", "cmpule")
BRANCH_OPS = ("beq", "bne", "blt", "bge", "ble", "bgt")
CONDITION_OPS = ("==", "!=", "<", "<=", ">", ">=")
STORE_SIZES = (8, 4, 2, 1)

SCRATCH_QUADS = 8  # masked scratch array (power of two)
STACK_SLOTS = 4  # sp-relative store window: 0(sp)..24(sp)


@dataclass(frozen=True)
class GeneratorConfig:
    """Tunable shape of generated programs."""

    blocks: int = 4
    min_ops: int = 6  # per block
    max_ops: int = 14
    min_iterations: int = 2  # outer loop
    max_iterations: int = 6
    inner_loop_prob: float = 0.25
    max_inner_iterations: int = 4
    store_density: float = 0.30
    branch_density: float = 0.15
    load_density: float = 0.20
    silent_store_prob: float = 0.15  # of stores: re-store the same value
    subword_fraction: float = 0.30  # of scratch stores: 1/2/4-byte sizes
    num_vars: int = 4
    max_watchpoints: int = 3
    max_breakpoints: int = 2
    condition_prob: float = 0.4
    epilogue: bool = True


@dataclass
class BodyOp:
    """One generated operation; ``kind`` selects the render rule."""

    kind: str
    args: dict = field(default_factory=dict)


@dataclass
class Block:
    """A run of body ops; optionally a bounded inner countdown loop."""

    ops: list[BodyOp] = field(default_factory=list)
    inner_iterations: int = 0  # 0 = straight-line block


@dataclass
class DebugPoint:
    """One watchpoint (on ``var``) or breakpoint (on ``block``)."""

    kind: str  # "watch" | "break"
    target: str  # variable name or block label
    condition: Optional[str] = None


@dataclass
class ProgramSpec:
    """A renderable, shrinkable, JSON-serializable program description."""

    seed: int
    reg_init: dict[int, int] = field(default_factory=dict)
    var_init: dict[str, int] = field(default_factory=dict)
    blocks: list[Block] = field(default_factory=list)
    iterations: int = 2
    points: list[DebugPoint] = field(default_factory=list)
    epilogue: bool = True
    inject: Optional[str] = None  # named fault injection (see fuzz.inject)

    @property
    def mode(self) -> str:
        """``"watch"`` or ``"break"`` (specs never mix the two)."""
        return self.points[0].kind if self.points else "watch"

    @property
    def watch_vars(self) -> list[str]:
        return [p.target for p in self.points if p.kind == "watch"]

    def to_dict(self) -> dict:
        """JSON-ready plain-data form (inverse of :meth:`from_dict`)."""
        data = asdict(self)
        data["reg_init"] = {str(k): v for k, v in self.reg_init.items()}
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ProgramSpec":
        return cls(
            seed=data["seed"],
            reg_init={int(k): v for k, v in data["reg_init"].items()},
            var_init=dict(data["var_init"]),
            blocks=[Block(ops=[BodyOp(o["kind"], dict(o["args"]))
                               for o in b["ops"]],
                          inner_iterations=b["inner_iterations"])
                    for b in data["blocks"]],
            iterations=data["iterations"],
            points=[DebugPoint(p["kind"], p["target"], p.get("condition"))
                    for p in data["points"]],
            epilogue=data.get("epilogue", True),
            inject=data.get("inject"),
        )


def generate_spec(seed: int,
                  config: Optional[GeneratorConfig] = None) -> ProgramSpec:
    """Generate the spec for ``seed`` (bit-reproducible from the seed)."""
    cfg = config or GeneratorConfig()
    rng = random.Random(seed)
    spec = ProgramSpec(
        seed=seed,
        reg_init={reg: rng.randrange(0, 1 << 12) for reg in POOL_REGS},
        var_init={f"v{i}": rng.randrange(1, 100)
                  for i in range(cfg.num_vars)},
        iterations=rng.randint(cfg.min_iterations, cfg.max_iterations),
        epilogue=cfg.epilogue,
    )
    for index in range(cfg.blocks):
        inner = (rng.randint(2, cfg.max_inner_iterations)
                 if rng.random() < cfg.inner_loop_prob else 0)
        block = Block(inner_iterations=inner)
        for _ in range(rng.randint(cfg.min_ops, cfg.max_ops)):
            block.ops.append(_generate_op(rng, cfg, list(spec.var_init)))
        spec.blocks.append(block)
    spec.points = _generate_points(rng, cfg, spec)
    return spec


def _generate_op(rng: random.Random, cfg: GeneratorConfig,
                 variables: list[str]) -> BodyOp:
    roll = rng.random()
    if roll < cfg.store_density:
        return _generate_store(rng, cfg, variables)
    roll -= cfg.store_density
    if roll < cfg.branch_density:
        return BodyOp("branch_skip", {
            "rs": rng.choice(POOL_REGS),
            "cmp": rng.choice(CMP_OPS),
            "imm": rng.randrange(0, 1 << 10),
            "br": rng.choice(("beq", "bne")),
            "skip": rng.randint(1, 4),
        })
    roll -= cfg.branch_density
    if roll < cfg.load_density:
        if rng.random() < 0.5 and variables:
            return BodyOp("load_var", {"rd": rng.choice(POOL_REGS),
                                       "var": rng.choice(variables)})
        return BodyOp("load_scratch", {"rd": rng.choice(POOL_REGS),
                                       "stride": rng.choice((1, 3, 5, 7))})
    if rng.random() < 0.3:
        return BodyOp("shift", {"op": rng.choice(SHIFT_OPS),
                                "rd": rng.choice(POOL_REGS),
                                "rs": rng.choice(POOL_REGS),
                                "amount": rng.randrange(0, 16)})
    src_is_reg = rng.random() < 0.5
    src = (rng.choice(POOL_REGS) if src_is_reg
           else rng.randrange(0, 1 << 10))
    return BodyOp("alu", {"op": rng.choice(ALU_OPS),
                          "rd": rng.choice(POOL_REGS),
                          "rs": rng.choice(POOL_REGS),
                          "src": src,
                          "src_is_reg": src_is_reg})


def _generate_store(rng: random.Random, cfg: GeneratorConfig,
                    variables: list[str]) -> BodyOp:
    target_roll = rng.random()
    if target_roll < 0.45 and variables:
        var = rng.choice(variables)
        if rng.random() < cfg.silent_store_prob:
            # Reload then re-store the same value: guaranteed silent.
            return BodyOp("silent_store", {"var": var})
        return BodyOp("store_var", {"rs": rng.choice(POOL_REGS),
                                    "var": var})
    if target_roll < 0.75:
        size = (rng.choice(STORE_SIZES[1:])
                if rng.random() < cfg.subword_fraction else 8)
        return BodyOp("store_scratch", {"rs": rng.choice(POOL_REGS),
                                        "size": size,
                                        "stride": rng.choice((1, 3, 5, 7))})
    return BodyOp("store_stack", {"rs": rng.choice(POOL_REGS),
                                  "slot": rng.randrange(0, STACK_SLOTS)})


def _generate_points(rng: random.Random, cfg: GeneratorConfig,
                     spec: ProgramSpec) -> list[DebugPoint]:
    variables = list(spec.var_init)
    if rng.random() < 0.5 or cfg.max_breakpoints == 0:
        count = rng.randint(1, min(cfg.max_watchpoints, len(variables)))
        targets = rng.sample(variables, count)
        points = []
        for var in targets:
            condition = None
            if rng.random() < cfg.condition_prob:
                # Conditions stay in the DISE-compilable intersection:
                # the watched variable compared against a constant.
                condition = (f"{var} {rng.choice(CONDITION_OPS)} "
                             f"{rng.randrange(0, 1 << 12)}")
            points.append(DebugPoint("watch", var, condition))
        return points
    count = rng.randint(1, min(cfg.max_breakpoints, len(spec.blocks)))
    labels = rng.sample([block_label(i) for i in range(len(spec.blocks))],
                        count)
    points = []
    for label in sorted(labels):
        condition = None
        if rng.random() < cfg.condition_prob:
            condition = (f"{rng.choice(variables)} "
                         f"{rng.choice(CONDITION_OPS)} "
                         f"{rng.randrange(0, 1 << 12)}")
        points.append(DebugPoint("break", label, condition))
    return points


def block_label(index: int) -> str:
    """Label of block ``index`` (breakpoint anchor site)."""
    return f"block_{index}"


# -- rendering ---------------------------------------------------------------


def build_program(spec: ProgramSpec) -> Program:
    """Render ``spec`` to a finalized :class:`Program`.

    Deterministic: the same spec always renders the same instruction
    list, which is what makes shrinking and golden traces meaningful.
    """
    b = CodeBuilder(f"fuzz-{spec.seed}")
    for name, value in spec.var_init.items():
        b.data_quad(name, value)
    if spec.epilogue:
        b.data_quad("checksum", 0)
    b.data_space("fuzz_scratch", SCRATCH_QUADS * 8)

    b.label("main")
    for reg, value in sorted(spec.reg_init.items()):
        if _spec_uses_reg(spec, reg):
            b.lda(reg, value, "zero")
    if _spec_uses_scratch(spec):
        b.lda(R_SCRATCH_BASE, "fuzz_scratch")
        b.lda(R_SCRATCH_IDX, 0, "zero")
    looped = spec.iterations > 1
    if looped:
        b.lda(R_OUTER, 0, "zero")
        b.label("loop_top")
    for index, block in enumerate(spec.blocks):
        b.label(block_label(index))
        # The breakpoint anchor: a no-effect ALU instruction, so a
        # breakpoint production never replaces (and thereby shadows) a
        # store or branch, and nop elision cannot skew accounting.
        b.addq("zero", 0, "zero")
        if block.inner_iterations > 0:
            b.lda(R_INNER, block.inner_iterations, "zero")
            b.label(f"inner_{index}")
        _render_ops(b, index, block.ops)
        if block.inner_iterations > 0:
            b.subq(R_INNER, 1, R_INNER)
            b.bne(R_INNER, f"inner_{index}")

    if looped:
        b.addq(R_OUTER, 1, R_OUTER)
        b.cmpult(R_OUTER, spec.iterations, R_OUTER_CMP)
        b.bne(R_OUTER_CMP, "loop_top")

    if spec.epilogue:
        _render_epilogue(b, spec)
    b.halt()

    # Instruction-granularity statements: the single-step backend then
    # observes memory immediately after every store, aligning its stop
    # points with the trap-per-store backends.
    b.statement_starts = set(range(len(b.instructions)))
    b._pending_statement = False
    return b.build(entry="main")


def _spec_uses_reg(spec: ProgramSpec, reg: int) -> bool:
    for block in spec.blocks:
        for op in block.ops:
            if reg in (op.args.get("rd"), op.args.get("rs")):
                return True
            if op.args.get("src_is_reg") and op.args.get("src") == reg:
                return True
    # The epilogue folds every initialized pool register.
    return spec.epilogue


def _spec_uses_scratch(spec: ProgramSpec) -> bool:
    return any(op.kind in ("load_scratch", "store_scratch")
               for block in spec.blocks for op in block.ops)


def _render_ops(b: CodeBuilder, block_index: int,
                ops: list[BodyOp]) -> None:
    pending_skips: list[tuple[int, str]] = []  # (ops remaining, label)
    for position, op in enumerate(ops):
        _render_op(b, op, f"b{block_index}_{position}", pending_skips,
                   remaining=len(ops) - position - 1)
        next_pending = []
        for count, label in pending_skips:
            if count <= 1:
                b.label(label)
            else:
                next_pending.append((count - 1, label))
        pending_skips = next_pending
    for _, label in pending_skips:
        b.label(label)


def _render_op(b: CodeBuilder, op: BodyOp, tag: str,
               pending_skips: list[tuple[int, str]], remaining: int) -> None:
    args = op.args
    if op.kind == "alu":
        middle = (f"r{args['src']}" if args.get("src_is_reg")
                  else int(args["src"]))
        b.op(args["op"], f"r{args['rs']}", middle, f"r{args['rd']}")
    elif op.kind == "shift":
        b.op(args["op"], f"r{args['rs']}", int(args["amount"]),
             f"r{args['rd']}")
    elif op.kind == "load_var":
        b.ldq(args["rd"], args["var"])
    elif op.kind == "load_scratch":
        _advance_scratch_index(b, args["stride"])
        b.ldq(args["rd"], 0, R_TMP)
    elif op.kind == "store_var":
        # Halve before storing: watched variables then always hold
        # values < 2**63, on which the signed inline comparisons DISE
        # compiles (cmplt/cmple) agree with the debugger's unsigned
        # expression evaluation.  Without this, inequality conditions
        # would diverge across backends by modeling choice, not by bug.
        b.srl(args["rs"], 1, R_TMP)
        b.stq(R_TMP, args["var"])
    elif op.kind == "silent_store":
        b.ldq(R_TMP, args["var"])
        b.stq(R_TMP, args["var"])
    elif op.kind == "store_scratch":
        _advance_scratch_index(b, args["stride"])
        store = {8: b.stq, 4: b.stl, 2: b.stw, 1: b.stb}[args["size"]]
        store(args["rs"], 0, R_TMP)
    elif op.kind == "store_stack":
        b.stq(args["rs"], args["slot"] * 8, "sp")
    elif op.kind == "branch_skip":
        skip = min(args["skip"], remaining)
        if skip <= 0:
            return  # nothing left to skip over; elide the branch
        b.op(args["cmp"], f"r{args['rs']}", int(args["imm"]), R_TMP)
        label = f"skip_{tag}"
        b.op(args["br"], R_TMP, label)
        pending_skips.append((skip, label))
    else:
        raise ValueError(f"unknown body op kind {op.kind!r}")


def _advance_scratch_index(b: CodeBuilder, stride: int) -> None:
    """Bump the masked scratch index; leave the address in R_TMP."""
    mask = SCRATCH_QUADS * 8 - 1
    b.addq(R_SCRATCH_IDX, stride, R_SCRATCH_IDX)
    b.and_(R_SCRATCH_IDX, mask & ~7, R_SCRATCH_IDX)
    b.addq(R_SCRATCH_BASE, f"r{R_SCRATCH_IDX}", R_TMP)


def _render_epilogue(b: CodeBuilder, spec: ProgramSpec) -> None:
    """Fold registers and variables into a stored checksum.

    The checksum makes final-state divergence observable through a
    single memory word even if a comparison elsewhere were relaxed.
    """
    b.lda(R_SUM_A, 0, "zero")
    for reg in sorted(spec.reg_init):
        b.xor(R_SUM_A, f"r{reg}", R_SUM_A)
        b.addq(R_SUM_A, 1, R_SUM_A)
    for name in spec.var_init:
        b.ldq(R_SUM_B, name)
        b.xor(R_SUM_A, f"r{R_SUM_B}", R_SUM_A)
    b.stq(R_SUM_A, "checksum")


def dynamic_budget(spec: ProgramSpec) -> int:
    """A safe application-instruction cap for one run of ``spec``.

    Generous upper bound used as the machine run limit: a run that
    reaches it did not terminate (a generator bug), which the oracle
    reports as a failure rather than hanging.
    """
    per_pass = 0
    for block in spec.blocks:
        body = 6 * len(block.ops) + 4
        per_pass += body * max(1, block.inner_iterations)
    per_pass += 8
    total = per_pass * max(1, spec.iterations)
    total += 4 * len(spec.reg_init) + 3 * len(spec.var_init) + 32
    return 4 * total + 10_000
