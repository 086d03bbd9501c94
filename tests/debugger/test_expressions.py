"""Watched-expression language: parsing, evaluation, address sets."""

import pytest
from hypothesis import given, strategies as st

from repro.debugger.expressions import (BinaryOp, Comparison, Constant,
                                        Indirect, ProgramResolver, Range,
                                        Variable, parse_expression)
from repro.errors import ExpressionError
from repro.isa import assemble

PROGRAM = assemble("""
.data
a:   .quad 10
b:   .quad 20
p:   .quad 0
arr: .space 64
.text
main: halt
""")


@pytest.fixture
def resolver():
    return ProgramResolver(PROGRAM)


@pytest.fixture
def memory():
    from repro.memory.main_memory import MainMemory
    memory = MainMemory()
    for item in PROGRAM.data_items:
        if item.init:
            memory.write_bytes(PROGRAM.address_of(item.name), item.init)
    memory.write_int(PROGRAM.address_of("p"), 8, PROGRAM.address_of("a"))
    return memory


class TestParsing:
    def test_variable(self):
        expr = parse_expression("a")
        assert isinstance(expr, Variable)
        assert expr.name == "a"

    def test_constant_forms(self):
        assert parse_expression("42").value == 42
        assert parse_expression("0x10").value == 16

    def test_indirection(self):
        expr = parse_expression("*p")
        assert isinstance(expr, Indirect)
        assert expr.pointer == "p"

    def test_range_full(self):
        expr = parse_expression("arr[0:]")
        assert isinstance(expr, Range)
        assert (expr.lo, expr.hi) == (0, None)

    def test_range_bounds(self):
        expr = parse_expression("arr[8:24]")
        assert (expr.lo, expr.hi) == (8, 24)

    def test_single_element(self):
        expr = parse_expression("arr[2]")
        assert isinstance(expr, Range)
        assert (expr.lo, expr.hi) == (16, 24)  # element 2 as a quad

    def test_arithmetic(self):
        expr = parse_expression("a + b")
        assert isinstance(expr, BinaryOp)
        assert expr.op == "+"

    def test_precedence(self):
        expr = parse_expression("a + b * 2")
        assert expr.op == "+"
        assert isinstance(expr.right, BinaryOp)
        assert expr.right.op == "*"

    def test_parentheses(self):
        expr = parse_expression("(a + b) * 2")
        assert expr.op == "*"

    def test_comparison(self):
        expr = parse_expression("a == 10")
        assert isinstance(expr, Comparison)
        assert expr.op == "=="

    @pytest.mark.parametrize("op", ["==", "!=", "<", "<=", ">", ">="])
    def test_all_comparison_ops(self, op):
        assert parse_expression(f"a {op} 5").op == op

    def test_deref_in_arithmetic(self):
        expr = parse_expression("*p + 1")
        assert isinstance(expr.left, Indirect)

    def test_empty_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("")

    def test_garbage_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("a @ b")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("a b")

    def test_empty_range_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("arr[8:8]")

    def test_range_in_arithmetic_rejected(self):
        with pytest.raises(ExpressionError):
            parse_expression("arr[0:] + 1")

    @pytest.mark.parametrize("text", ("arr[<", "arr[a]", "arr[0:b]",
                                      "arr[]", "arr[" + "9" * 5000 + "]"),
                             ids=("operator", "name", "name-bound", "empty",
                                  "5000-digits"))
    def test_non_numeric_range_bound_rejected(self, text):
        with pytest.raises(ExpressionError, match="expected a number"):
            parse_expression(text)


class TestEvaluation:
    def test_variable(self, resolver, memory):
        assert parse_expression("a").evaluate(resolver, memory) == 10

    def test_arithmetic(self, resolver, memory):
        assert parse_expression("a + b").evaluate(resolver, memory) == 30
        assert parse_expression("b - a").evaluate(resolver, memory) == 10
        assert parse_expression("a * b").evaluate(resolver, memory) == 200

    def test_subtraction_wraps_unsigned(self, resolver, memory):
        value = parse_expression("a - b").evaluate(resolver, memory)
        assert value == (10 - 20) % (1 << 64)

    def test_indirect(self, resolver, memory):
        assert parse_expression("*p").evaluate(resolver, memory) == 10

    def test_indirect_follows_pointer_change(self, resolver, memory):
        memory.write_int(PROGRAM.address_of("p"), 8,
                         PROGRAM.address_of("b"))
        assert parse_expression("*p").evaluate(resolver, memory) == 20

    def test_range_returns_bytes(self, resolver, memory):
        value = parse_expression("arr[0:16]").evaluate(resolver, memory)
        assert value == bytes(16)

    def test_comparison(self, resolver, memory):
        assert parse_expression("a == 10").evaluate(resolver, memory) is True
        assert parse_expression("a > b").evaluate(resolver, memory) is False

    def test_unknown_variable(self, resolver, memory):
        with pytest.raises(ExpressionError):
            parse_expression("nope").evaluate(resolver, memory)

    def test_range_exceeding_allocation(self, resolver, memory):
        with pytest.raises(ExpressionError):
            parse_expression("arr[0:100]").evaluate(resolver, memory)


class TestAddresses:
    def test_variable_addresses(self, resolver):
        (addr, size), = parse_expression("a").addresses(resolver)
        assert addr == PROGRAM.address_of("a")
        assert size == 8

    def test_static_flags(self):
        assert parse_expression("a").is_static
        assert parse_expression("a + b").is_static
        assert not parse_expression("*p").is_static
        assert not parse_expression("*p == 3").is_static

    def test_indirect_needs_memory(self, resolver):
        with pytest.raises(ExpressionError):
            parse_expression("*p").addresses(resolver)

    def test_indirect_with_memory(self, resolver, memory):
        (addr, _), = parse_expression("*p").addresses(resolver, memory)
        assert addr == PROGRAM.address_of("a")

    def test_compound_addresses(self, resolver):
        addresses = parse_expression("a + b").addresses(resolver)
        assert len(addresses) == 2

    def test_range_extent(self, resolver):
        (addr, size), = parse_expression("arr[8:24]").addresses(resolver)
        assert addr == PROGRAM.address_of("arr") + 8
        assert size == 16

    def test_constant_has_no_addresses(self, resolver):
        assert parse_expression("7").addresses(resolver) == []

    def test_variables_listed(self):
        assert parse_expression("a + b").variables() == ["a", "b"]
        assert parse_expression("*p").variables() == ["p"]


@given(a=st.integers(min_value=0, max_value=(1 << 64) - 1),
       b=st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_arithmetic_matches_machine_semantics(a, b):
    from repro.memory.main_memory import MainMemory

    class _Resolver:
        def resolve(self, name):
            return {"x": (0x100, 8), "y": (0x108, 8)}[name]

    memory = MainMemory()
    memory.write_int(0x100, 8, a)
    memory.write_int(0x108, 8, b)
    resolver = _Resolver()
    assert parse_expression("x + y").evaluate(resolver, memory) == \
        (a + b) % (1 << 64)
    assert parse_expression("x * y").evaluate(resolver, memory) == \
        (a * b) % (1 << 64)


@given(value=st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_parse_constant_roundtrip(value):
    assert parse_expression(str(value)).value == value
