"""The watched-expression language.

Users set watchpoints on expressions over program variables.  The
grammar (a practical subset of what gdb accepts) is::

    expr      := cmp
    cmp       := sum (("==" | "!=" | "<" | "<=" | ">" | ">=") sum)?
    sum       := term (("+" | "-") term)*
    term      := factor ("*" factor)*
    factor    := NUMBER | ref | "(" expr ")"
    ref       := "*" NAME            (indirection through a pointer)
               | NAME "[" lo ":" hi "]"   (byte range of a symbol)
               | NAME

Expression objects support:

* :meth:`Expression.addresses` -- the (address, size) pairs the
  expression currently references.  For *static* expressions these are
  known without reading memory; indirection makes an expression
  *dynamic* ("Addresses generated by indirection ... cannot be
  statically determined" — paper Section 2), which is why the
  virtual-memory and hardware-register backends reject it.
* :meth:`Expression.evaluate` -- the current value (an ``int`` for
  scalar expressions, ``bytes`` for ranges).

Name resolution goes through a :class:`SymbolResolver`, normally backed
by the program's symbol table.
"""

from __future__ import annotations

import re
from typing import Protocol

from repro.errors import ExpressionError

QUAD = 8


class MemoryReader(Protocol):
    """Structural type: the memory interface expressions read through."""

    def read_int(self, address: int, size: int) -> int:
        """Read ``size`` bytes at ``address`` as an unsigned integer."""
        ...

    def read_bytes(self, address: int, length: int) -> bytes:
        """Read ``length`` raw bytes starting at ``address``."""
        ...


class SymbolResolver(Protocol):
    """Structural type: resolves variable names to (address, size)."""
    def resolve(self, name: str) -> tuple[int, int]:
        """Return (address, allocated size in bytes) of ``name``."""
        ...


class ProgramResolver:
    """Resolve names against a :class:`repro.isa.program.Program`.

    A symbol never moves once laid out: transforms only append symbols,
    and re-laying out keeps every existing one.  So each name resolves
    once; single-stepping re-evaluates every watched expression at
    every statement.
    """

    def __init__(self, program):
        self._program = program
        self._resolved: dict[str, tuple[int, int]] = {}

    def resolve(self, name: str) -> tuple[int, int]:
        """Return (address, size) of ``name`` from the program's symbols."""
        resolved = self._resolved.get(name)
        if resolved is None:
            try:
                symbol = self._program.symbol(name)
            except Exception as exc:
                raise ExpressionError(f"unknown variable {name!r}") from exc
            resolved = self._resolved[name] = (symbol.address,
                                               symbol.size or QUAD)
        return resolved


class Expression:
    """Base class of all expression nodes."""

    #: True when every referenced address is statically determinable.
    is_static = True
    #: True when the expression yields bytes (a range) rather than an int.
    is_range = False

    def addresses(self, resolver: SymbolResolver,
                  memory: MemoryReader | None = None) -> list[tuple[int, int]]:
        """(address, size) pairs the expression currently references.

        Dynamic expressions require ``memory`` to chase pointers.
        """
        raise NotImplementedError

    def evaluate(self, resolver: SymbolResolver, memory: MemoryReader):
        """Return the expression's current value from ``memory``."""
        raise NotImplementedError

    def variables(self) -> list[str]:
        """Names referenced by the expression (pre-resolution)."""
        return []

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class Constant(Expression):
    """A literal integer (useful inside arithmetic and conditions)."""
    def __init__(self, value: int):
        self.value = value

    def addresses(self, resolver, memory=None):
        """Constants reference no storage."""
        return []

    def evaluate(self, resolver, memory):
        """Return the literal value."""
        return self.value

    def __str__(self) -> str:
        return str(self.value)


class Variable(Expression):
    """A scalar program variable (watched as one quad or smaller)."""

    def __init__(self, name: str):
        self.name = name

    def addresses(self, resolver, memory=None):
        """The variable's own (address, size)."""
        address, size = resolver.resolve(self.name)
        return [(address, min(size, QUAD))]

    def evaluate(self, resolver, memory):
        """Load the variable's current value."""
        address, size = resolver.resolve(self.name)
        return memory.read_int(address, min(size, QUAD))

    def variables(self):
        """The variable's name."""
        return [self.name]

    def __str__(self) -> str:
        return self.name


class Indirect(Expression):
    """``*p``: the value at the address currently held in ``p``.

    The watched storage moves when ``p`` is reassigned, so the address
    set is dynamic.
    """

    is_static = False

    def __init__(self, pointer: str, size: int = QUAD):
        self.pointer = pointer
        self.size = size

    def addresses(self, resolver, memory=None):
        """The storage currently pointed to (requires ``memory``)."""
        if memory is None:
            raise ExpressionError(
                f"*{self.pointer} is indirect; its addresses cannot be "
                "statically determined")
        pointer_addr, _ = resolver.resolve(self.pointer)
        target = memory.read_int(pointer_addr, QUAD)
        return [(target, self.size)]

    def evaluate(self, resolver, memory):
        """Chase the pointer and load the pointed-to value."""
        pointer_addr, _ = resolver.resolve(self.pointer)
        target = memory.read_int(pointer_addr, QUAD)
        return memory.read_int(target, self.size)

    def variables(self):
        """The pointer variable's name."""
        return [self.pointer]

    def __str__(self) -> str:
        return f"*{self.pointer}"


class Range(Expression):
    """``name[lo:hi]``: the bytes of a non-scalar (array/struct) region."""

    is_range = True

    def __init__(self, name: str, lo: int, hi: int | None):
        if hi is not None and hi <= lo:
            raise ExpressionError(f"empty range [{lo}:{hi}]")
        self.name = name
        self.lo = lo
        self.hi = hi

    def _extent(self, resolver) -> tuple[int, int]:
        address, size = resolver.resolve(self.name)
        hi = self.hi if self.hi is not None else size
        if hi > size:
            raise ExpressionError(
                f"{self.name}[{self.lo}:{hi}] exceeds the symbol's "
                f"{size}-byte allocation")
        return address + self.lo, hi - self.lo

    def addresses(self, resolver, memory=None):
        """The (start, length) byte extent of the watched region."""
        start, length = self._extent(resolver)
        return [(start, length)]

    def evaluate(self, resolver, memory):
        """Return the region's current contents as bytes."""
        start, length = self._extent(resolver)
        return memory.read_bytes(start, length)

    def variables(self):
        """The underlying symbol's name."""
        return [self.name]

    def __str__(self) -> str:
        hi = "" if self.hi is None else self.hi
        return f"{self.name}[{self.lo}:{hi}]"


_ARITH_OPS = {
    "+": lambda a, b: (a + b) & ((1 << 64) - 1),
    "-": lambda a, b: (a - b) & ((1 << 64) - 1),
    "*": lambda a, b: (a * b) & ((1 << 64) - 1),
}

_CMP_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class BinaryOp(Expression):
    """Arithmetic over scalar sub-expressions (``a + b``, ...)."""

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _ARITH_OPS:
            raise ExpressionError(f"unknown operator {op!r}")
        if left.is_range or right.is_range:
            raise ExpressionError("ranges cannot appear in arithmetic")
        self.op = op
        self.left = left
        self.right = right

    @property
    def is_static(self):  # type: ignore[override]
        return self.left.is_static and self.right.is_static

    def addresses(self, resolver, memory=None):
        """Union of both operands' referenced addresses."""
        return (self.left.addresses(resolver, memory)
                + self.right.addresses(resolver, memory))

    def evaluate(self, resolver, memory):
        """Apply the operator to both operands (64-bit wrap)."""
        return _ARITH_OPS[self.op](self.left.evaluate(resolver, memory),
                                   self.right.evaluate(resolver, memory))

    def variables(self):
        """Names referenced by either operand."""
        return self.left.variables() + self.right.variables()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


class Comparison(Expression):
    """A predicate: used as the *condition* of conditional watchpoints."""

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _CMP_OPS:
            raise ExpressionError(f"unknown comparison {op!r}")
        self.op = op
        self.left = left
        self.right = right

    @property
    def is_static(self):  # type: ignore[override]
        return self.left.is_static and self.right.is_static

    def addresses(self, resolver, memory=None):
        """Union of both sides' referenced addresses."""
        return (self.left.addresses(resolver, memory)
                + self.right.addresses(resolver, memory))

    def evaluate(self, resolver, memory) -> bool:
        """Evaluate the predicate to a bool."""
        return _CMP_OPS[self.op](self.left.evaluate(resolver, memory),
                                 self.right.evaluate(resolver, memory))

    def variables(self):
        """Names referenced by either side."""
        return self.left.variables() + self.right.variables()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


# -- parser ------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    \s*(?:
        (?P<number>0[xX][0-9a-fA-F]+|\d+)
      | (?P<name>[A-Za-z_][\w.]*)
      | (?P<op>==|!=|<=|>=|[+\-*<>\[\]():])
    )""", re.VERBOSE)


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise ExpressionError(f"cannot tokenize {remainder!r}")
        tokens.append(match.group().strip())
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> str | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise ExpressionError("unexpected end of expression")
        self._pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.take()
        if got != token:
            raise ExpressionError(f"expected {token!r}, got {got!r}")

    def parse(self) -> Expression:
        expr = self.cmp()
        if self.peek() is not None:
            raise ExpressionError(f"trailing tokens: {self._tokens[self._pos:]}")
        return expr

    def cmp(self) -> Expression:
        left = self.sum_()
        if self.peek() in _CMP_OPS:
            op = self.take()
            right = self.sum_()
            return Comparison(op, left, right)
        return left

    def sum_(self) -> Expression:
        expr = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            expr = BinaryOp(op, expr, self.term())
        return expr

    def term(self) -> Expression:
        expr = self.factor()
        while self.peek() == "*" and self._pos + 1 < len(self._tokens):
            # Disambiguate multiplication from a following deref: "a * b".
            op = self.take()
            expr = BinaryOp(op, expr, self.factor())
        return expr

    def factor(self) -> Expression:
        token = self.take()
        if token == "(":
            expr = self.cmp()
            self.expect(")")
            return expr
        if token == "*":
            name = self.take()
            if not _is_name(name):
                raise ExpressionError(f"expected variable after '*', got "
                                      f"{name!r}")
            return Indirect(name)
        if _is_number(token):
            return Constant(int(token, 0))
        if _is_name(token):
            if self.peek() == "[":
                return self._range(token)
            return Variable(token)
        raise ExpressionError(f"unexpected token {token!r}")

    def _range(self, name: str) -> Range:
        self.expect("[")
        lo = 0
        hi: int | None = None
        if self.peek() != ":":
            lo = self._number()
        if self.peek() == ":":
            self.take()
            if self.peek() != "]":
                hi = self._number()
            self.expect("]")
            return Range(name, lo, hi)
        self.expect("]")
        # name[i] — a single element; treat as an 8-byte slot.
        return Range(name, lo * QUAD, (lo + 1) * QUAD)

    def _number(self) -> int:
        token = self.take()
        if not _is_number(token):
            raise ExpressionError(f"expected a number, got {token!r}")
        return int(token, 0)


def _is_number(token: str) -> bool:
    try:
        int(token, 0)
        return True
    except ValueError:
        return False


def _is_name(token: str) -> bool:
    return bool(re.fullmatch(r"[A-Za-z_][\w.]*", token))


def parse_expression(text: str) -> Expression:
    """Parse a watched expression or condition."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    return _Parser(tokens).parse()
