"""Comparison predicates under certain-answer semantics."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import QueryError
from repro.relational.comparisons import (
    compare_values,
    compile_comparison,
    conjoin,
    evaluate_comparison,
)
from repro.relational.conjunctive import COMPARISON_OPS, Comparison, Variable
from repro.relational.values import MarkedNull


def ev(op, left, right, binding=None):
    return evaluate_comparison(Comparison(op, left, right), binding or {})


class TestConstants:
    @pytest.mark.parametrize(
        "op,left,right,expected",
        [
            ("=", 3, 3, True),
            # Cross-type numerics are distinct values: the identity
            # relation matches the injective type-tagged cell encoding,
            # so untyped columns behave the same on every backend.
            ("=", 3, 3.0, False),
            ("=", 3.0, 3.0, True),
            ("=", -0.0, 0.0, True),
            ("=", True, 1, False),
            ("=", False, 0, False),
            ("=", 3, 4, False),
            ("=", "a", "a", True),
            ("!=", 3, 4, True),
            ("!=", 3, 3, False),
            ("!=", 3, 3.0, True),
            ("!=", True, 1, True),
            ("<", 3, 4, True),
            ("<", 4, 3, False),
            ("<=", 3, 3, True),
            (">", 4, 3, True),
            (">=", 3, 3, True),
            ("<", "abc", "abd", True),
            (">", "b", "a", True),
        ],
    )
    def test_basic(self, op, left, right, expected):
        assert ev(op, left, right) is expected

    def test_mixed_types_never_ordered(self):
        assert ev("<", 3, "a") is False
        assert ev(">", "a", 3) is False
        assert ev("<=", True, 3) is False

    def test_bools_order_among_themselves(self):
        assert ev("<", False, True) is True

    def test_order_is_numeric_across_int_and_float(self):
        # Order operators are DOMAIN constraints: ints and floats sit
        # on one number line (x >= 100 must admit 100.5), even though
        # = / != are type-strict value identity.  See the module
        # docstring of repro.relational.comparisons.
        assert ev("<", 3, 3.5) is True
        assert ev(">=", 100.5, 100) is True
        assert ev(">", 2.5, 3) is False

    def test_cross_type_numeric_tie_is_the_documented_seam(self):
        # At a numeric tie the two relations visibly diverge: 3 and
        # 3.0 are distinct VALUES (identity) but numerically equal
        # (order).  Pinned so the asymmetry stays deliberate.
        assert ev("=", 3, 3.0) is False
        assert ev("!=", 3, 3.0) is True
        assert ev("<", 3, 3.0) is False
        assert ev(">", 3, 3.0) is False
        assert ev("<=", 3, 3.0) is True
        assert ev(">=", 3, 3.0) is True


class TestNulls:
    def test_same_null_equal(self):
        null = MarkedNull("n")
        assert ev("=", null, null) is True

    def test_distinct_nulls_not_certainly_equal(self):
        assert ev("=", MarkedNull("a"), MarkedNull("b")) is False

    def test_null_never_certainly_equals_constant(self):
        assert ev("=", MarkedNull("a"), 3) is False

    def test_null_never_certainly_unequal(self):
        # two different nulls may still denote the same value
        assert ev("!=", MarkedNull("a"), MarkedNull("b")) is False
        assert ev("!=", MarkedNull("a"), 3) is False

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">="])
    def test_ordering_with_null_never_certain(self, op):
        assert ev(op, MarkedNull("a"), 3) is False
        assert ev(op, 3, MarkedNull("a")) is False


class TestVariables:
    def test_bound_variable_resolved(self):
        assert ev(">", Variable("x"), 3, {"x": 5}) is True

    def test_unbound_variable_raises(self):
        with pytest.raises(QueryError):
            ev("=", Variable("x"), 3, {})

    def test_two_variables(self):
        assert ev("<", Variable("x"), Variable("y"), {"x": 1, "y": 2}) is True


NAN = float("nan")
#: Every type class a cell can hold, with the values where Python's
#: own operators and the certain-answer semantics part ways: bools
#: (ints to Python), cross-type numeric ties, signed zeros, ``nan``
#: (the same value as itself, yet not ``==`` to itself), infinities.
POOL = [
    0, 1, 3, -7, 10**20,
    0.0, -0.0, 3.0, 2.5, NAN, float("nan"), float("inf"), float("-inf"),
    True, False,
    "", "a", "b", "3",
    MarkedNull("N1"), MarkedNull("N2"),
]  # fmt: skip
X, Y = Variable("x"), Variable("y")
SHAPES = ("var-const", "const-var", "var-var")


def kernel_for(op, shape, left, right, slots):
    """The kernel of ``left op right`` with the *shape*'s sides made
    variables (``x`` left, ``y`` right) and the others left constants."""
    return compile_comparison(
        Comparison(
            op,
            X if shape in ("var-const", "var-var") else left,
            Y if shape in ("const-var", "var-var") else right,
        ),
        slots,
    )


def expected_indices(op, lefts, rights):
    return [
        i
        for i, (left, right) in enumerate(zip(lefts, rights))
        if compare_values(op, left, right)
    ]


class TestKernelsMatchCompareValues:
    """``compile_comparison`` never defines semantics: on every operator,
    shape and value pair its row predicate and its column filter return
    exactly what ``compare_values`` returns."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("op", COMPARISON_OPS)
    def test_row_predicate_exhaustive(self, op, shape):
        for left in POOL:
            for right in POOL:
                expected = compare_values(op, left, right)
                # Positional slots (a tuple row) and name slots (a
                # binding dict) run the same kernel code.
                by_position = kernel_for(op, shape, left, right, {"x": 1, "y": 0})
                by_name = kernel_for(op, shape, left, right, {"x": "x", "y": "y"})
                assert by_position.row((right, left)) is expected, (left, right)
                assert by_name.row({"x": left, "y": right}) is expected, (left, right)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("op", COMPARISON_OPS)
    def test_column_filter_exhaustive(self, op, shape):
        # Every pool value against the whole (mixed-type) pool column,
        # and against each single-type slice of it (the typed fast path).
        columns = [POOL] + [
            [v for v in POOL if type(v) is kind]
            for kind in (int, float, bool, str, MarkedNull)
        ] + [[v for v in POOL if type(v) in (int, float)]]
        for column in columns:
            n = len(column)
            for other in POOL:
                if shape == "var-const":
                    lefts, rights = column, [other] * n
                elif shape == "const-var":
                    lefts, rights = [other] * n, column
                else:
                    lefts, rights = column, column[::-1]
                kernel = kernel_for(
                    op, shape, other, other, {"x": "l", "y": "r"}
                )
                kept = kernel.columns({"l": lefts, "r": rights}.__getitem__, n)
                assert kept == expected_indices(op, lefts, rights), (column, other)

    @pytest.mark.parametrize("op", COMPARISON_OPS)
    def test_ground_comparison_folds(self, op):
        for left in POOL:
            for right in POOL:
                kernel = compile_comparison(Comparison(op, left, right), {})
                expected = compare_values(op, left, right)
                assert kernel.row(None) is expected
                assert kernel.columns(None, 3) == ([0, 1, 2] if expected else [])

    @settings(max_examples=300, deadline=None)
    @given(
        op=st.sampled_from(COMPARISON_OPS),
        shape=st.sampled_from(SHAPES),
        pairs=st.lists(
            st.tuples(
                st.one_of(
                    st.sampled_from(POOL),
                    st.integers(),
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.text(max_size=3),
                    st.booleans(),
                ),
                st.one_of(
                    st.sampled_from(POOL),
                    st.integers(),
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.text(max_size=3),
                    st.booleans(),
                ),
            ),
            max_size=12,
        ),
        constant=st.sampled_from(POOL),
    )
    def test_property_rows_and_columns(self, op, shape, pairs, constant):
        lefts = [left for left, _ in pairs]
        rights = [right for _, right in pairs]
        if shape == "var-const":
            rights = [constant] * len(pairs)
        elif shape == "const-var":
            lefts = [constant] * len(pairs)
        kernel = kernel_for(op, shape, constant, constant, {"x": 0, "y": 1})
        expected = expected_indices(op, lefts, rights)
        rows = list(zip(lefts, rights))
        assert [i for i, row in enumerate(rows) if kernel.row(row)] == expected
        columns = [lefts, rights]
        assert kernel.columns(columns.__getitem__, len(rows)) == expected

    def test_unbound_variable_raises_at_compile_time(self):
        with pytest.raises(QueryError, match="unbound variable 'x'"):
            compile_comparison(Comparison("=", X, 3), {"y": 0})

    def test_key_is_type_strict_and_mirror_invariant(self):
        def key(comparison):
            return compile_comparison(comparison, {"x": 2}).key

        # 3 and 3.0 hash and compare equal in Python; as coDB values
        # they differ, and so must anything cached under the key.
        assert key(Comparison("=", X, 3)) != key(Comparison("=", X, 3.0))
        assert key(Comparison("=", X, 1)) != key(Comparison("=", X, True))
        assert key(Comparison("<", 3, X)) == key(Comparison(">", X, 3))
        assert key(Comparison("<", X, 3)) != key(Comparison(">", X, 3))

    def test_conjoin(self):
        low = compile_comparison(Comparison(">=", X, 2), {"x": 0})
        high = compile_comparison(Comparison("<", X, 5), {"x": 0})
        assert conjoin([]) is None
        assert conjoin([low]) is low
        both = conjoin([low, high])
        column = [1, 2, 4, 5, "4", 3.5]
        assert both.columns([column].__getitem__, len(column)) == [1, 2, 5]
        assert [both.row((v,)) for v in column] == [
            False, True, True, False, False, True
        ]  # fmt: skip
        assert both.key == (low.key, high.key)


class TestValidation:
    def test_unknown_operator_rejected(self):
        with pytest.raises(QueryError):
            Comparison("<>", 1, 2)
