"""Marked nulls and the value model."""

import pytest

from repro.relational.values import (
    MarkedNull,
    check_value,
    decode_row,
    decode_rows,
    decode_value,
    encode_row,
    encode_value,
    is_constant,
    is_null,
    row_sort_key,
    value_sort_key,
)


class TestMarkedNull:
    def test_equality_by_label(self):
        assert MarkedNull("N1") == MarkedNull("N1")
        assert MarkedNull("N1") != MarkedNull("N2")

    def test_null_never_equals_constant(self):
        assert MarkedNull("N1") != "N1"
        assert MarkedNull("3") != 3

    def test_hashable_and_usable_in_sets(self):
        rows = {MarkedNull("a"), MarkedNull("a"), MarkedNull("b")}
        assert len(rows) == 2

    def test_immutable(self):
        null = MarkedNull("N1")
        with pytest.raises(AttributeError):
            null.label = "N2"

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            MarkedNull("")

    def test_repr_shows_label(self):
        assert repr(MarkedNull("N3@TN")) == "#N3@TN"

    def test_ordering_between_nulls(self):
        assert MarkedNull("a") < MarkedNull("b")


class TestPredicates:
    @pytest.mark.parametrize("value", [1, 2.5, "x", True, False])
    def test_constants(self, value):
        assert is_constant(value)
        assert not is_null(value)

    def test_null_is_not_constant(self):
        assert is_null(MarkedNull("n"))
        assert not is_constant(MarkedNull("n"))

    def test_check_value_accepts_valid(self):
        for value in (0, -3, 2.5, "", "abc", True, MarkedNull("n")):
            assert check_value(value) == value

    @pytest.mark.parametrize("bad", [None, [1], {"a": 1}, (1,), object()])
    def test_check_value_rejects_invalid(self, bad):
        with pytest.raises(TypeError):
            check_value(bad)


class TestSortKeys:
    def test_mixed_type_rows_sort_without_error(self):
        rows = [(3,), ("a",), (True,), (MarkedNull("n"),), (1.5,)]
        ordered = sorted(rows, key=row_sort_key)
        assert ordered.index((True,)) < ordered.index((3,))
        assert ordered.index((3,)) < ordered.index(("a",))
        assert ordered.index(("a",)) < ordered.index((MarkedNull("n"),))

    def test_numbers_sort_numerically(self):
        assert value_sort_key(2) < value_sort_key(10)
        assert value_sort_key(2.5) < value_sort_key(3)

    def test_nulls_sort_by_label(self):
        assert value_sort_key(MarkedNull("a")) < value_sort_key(MarkedNull("b"))


class TestWireCodec:
    @pytest.mark.parametrize("value", [1, -7, 2.5, "x", "", True, False])
    def test_constant_round_trip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_null_round_trip(self):
        null = MarkedNull("N9@peer")
        assert decode_value(encode_value(null)) == null

    def test_row_round_trip(self):
        row = ("a", 1, MarkedNull("n"), True, 2.5)
        assert decode_row(encode_row(row)) == row

    def test_malformed_dict_rejected(self):
        with pytest.raises(ValueError):
            decode_value({"not-null-key": "x"})

    def test_a_null_label_is_a_string(self):
        with pytest.raises(ValueError):
            decode_value({"$null": 7})

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [(1, "a"), (2, "b")],
            [(True, 2.5), (0, -0.0)],
            [("a", MarkedNull("n")), (1, 2)],
        ],
        ids=["empty", "plain", "bools-floats", "with-null"],
    )
    def test_a_batch_decodes_as_its_rows_do(self, rows):
        encoded = [encode_row(row) for row in rows]
        decoded = decode_rows(encoded)
        assert decoded == [decode_row(row) for row in encoded]
        assert [list(map(type, row)) for row in decoded] == [
            list(map(type, row)) for row in rows
        ]

    def test_a_batch_with_an_invalid_value_is_rejected(self):
        with pytest.raises(TypeError):
            decode_rows([[1], [None]])

    def test_encoded_null_is_json_safe(self):
        import json

        encoded = encode_value(MarkedNull("N1"))
        assert json.loads(json.dumps(encoded)) == encoded
