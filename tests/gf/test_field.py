"""Unit tests for scalar Galois-field arithmetic."""

import numpy as np
import pytest

from repro.gf.field import (TAKE_GATHER_MIN_ELEMENTS, GField, default_field,
                            get_field)
from repro.gf.tables import PRIMITIVE_POLYNOMIALS, SUPPORTED_WORD_SIZES, get_tables


@pytest.fixture(params=[4, 8, 16])
def field(request):
    return get_field(request.param)


class TestFieldBasics:
    def test_supported_word_sizes(self):
        assert set(SUPPORTED_WORD_SIZES) == set(PRIMITIVE_POLYNOMIALS) == {4, 8, 16}

    def test_default_field_is_gf256(self):
        assert default_field().w == 8
        assert default_field().order == 256

    def test_get_field_is_cached(self):
        assert get_field(8) is get_field(8)

    def test_get_field_rejects_unknown_word_size(self):
        with pytest.raises(ValueError):
            get_field(12)

    def test_equality_and_hash(self):
        assert get_field(8) == GField(8)
        assert hash(get_field(8)) == hash(GField(8))
        assert get_field(8) != get_field(16)

    def test_order(self, field):
        assert field.order == 1 << field.w

    def test_element_dtype(self):
        assert get_field(8).element_dtype == np.dtype(np.uint8)
        assert get_field(4).element_dtype == np.dtype(np.uint8)
        assert get_field(16).element_dtype == np.dtype(np.uint16)


class TestArithmetic:
    def test_addition_is_xor(self, field):
        assert field.add(0b1010 % field.order, 0b0110 % field.order) == (
            (0b1010 % field.order) ^ (0b0110 % field.order))

    def test_add_sub_identical(self, field):
        for a, b in [(1, 2), (7, 7), (0, 5)]:
            assert field.add(a, b) == field.sub(a, b)

    def test_multiplication_by_zero_and_one(self, field):
        for a in range(min(field.order, 64)):
            assert field.mul(a, 0) == 0
            assert field.mul(0, a) == 0
            assert field.mul(a, 1) == a
            assert field.mul(1, a) == a

    def test_multiplication_commutative(self, field):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.integers(0, field.order, 2)
            assert field.mul(int(a), int(b)) == field.mul(int(b), int(a))

    def test_multiplication_associative(self, field):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a, b, c = (int(x) for x in rng.integers(0, field.order, 3))
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))

    def test_distributivity(self, field):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a, b, c = (int(x) for x in rng.integers(0, field.order, 3))
            assert field.mul(a, field.add(b, c)) == field.add(
                field.mul(a, b), field.mul(a, c))

    def test_division_inverts_multiplication(self, field):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = int(rng.integers(0, field.order))
            b = int(rng.integers(1, field.order))
            assert field.div(field.mul(a, b), b) == a

    def test_division_by_zero_raises(self, field):
        with pytest.raises(ZeroDivisionError):
            field.div(1, 0)

    def test_inverse(self, field):
        upper = min(field.order, 300)
        for a in range(1, upper):
            assert field.mul(a, field.inv(a)) == 1

    def test_inverse_of_zero_raises(self, field):
        with pytest.raises(ZeroDivisionError):
            field.inv(0)

    def test_pow_matches_repeated_multiplication(self, field):
        for a in (1, 2, 3, 5):
            acc = 1
            for e in range(6):
                assert field.pow(a, e) == acc
                acc = field.mul(acc, a)

    def test_pow_negative_exponent(self, field):
        a = 3
        assert field.mul(field.pow(a, -1), a) == 1

    def test_pow_zero_cases(self, field):
        assert field.pow(0, 0) == 1
        assert field.pow(0, 5) == 0
        with pytest.raises(ZeroDivisionError):
            field.pow(0, -1)

    def test_exp_log_roundtrip(self, field):
        upper = min(field.order, 300)
        for a in range(1, upper):
            assert field.exp(field.log(a)) == a

    def test_log_of_zero_raises(self, field):
        with pytest.raises(ValueError):
            field.log(0)

    def test_primitive_element_generates_field(self, field):
        seen = set()
        x = 1
        for _ in range(field.order - 1):
            seen.add(x)
            x = field.mul(x, 2)
        assert len(seen) == field.order - 1


class TestVectorOperations:
    def test_mul_vector_matches_scalar(self, field):
        rng = np.random.default_rng(4)
        vec = rng.integers(0, field.order, 32).astype(field.element_dtype)
        for c in (0, 1, 2, 7, field.order - 1):
            expected = np.array([field.mul(c, int(v)) for v in vec],
                                dtype=field.element_dtype)
            assert np.array_equal(field.mul_vector(c, vec), expected)

    def test_mul_table_row_matches_mul(self):
        field = get_field(8)
        row = field.mul_table_row(37)
        for b in range(256):
            assert row[b] == field.mul(37, b)

    def test_mul_table_row_unavailable_for_w16(self):
        with pytest.raises(NotImplementedError):
            get_field(16).mul_table_row(3)

    def test_dot(self, field):
        rng = np.random.default_rng(5)
        vectors = [rng.integers(0, field.order, 16).astype(field.element_dtype)
                   for _ in range(3)]
        coeffs = [2, 0, 5]
        result = field.dot(coeffs, vectors)
        expected = np.zeros(16, dtype=field.element_dtype)
        for c, v in zip(coeffs, vectors):
            expected ^= field.mul_vector(c, v)
        assert np.array_equal(result, expected)

    def test_dot_all_zero_coefficients(self, field):
        vectors = [np.ones(8, dtype=field.element_dtype)] * 2
        assert not field.dot([0, 0], vectors).any()


@pytest.mark.parametrize("w", [4, 8])
@pytest.mark.parametrize("size", [TAKE_GATHER_MIN_ELEMENTS - 1,
                                  TAKE_GATHER_MIN_ELEMENTS])
class TestGatherCrossover:
    """``mul_rows`` and ``mul_gather`` use a 2-D fancy index below the
    crossover and one ``np.take`` per constant from it on; both sides must
    give the products ``mul_elementwise`` gives."""

    @staticmethod
    def constants(field):
        return np.array([0, 1, 2, field.order - 1, 7], dtype=np.int64)

    @staticmethod
    def expected_takes(size, constants):
        if size < TAKE_GATHER_MIN_ELEMENTS:
            return []
        return ["raise"] * len(constants)

    def test_mul_rows_matches_elementwise(self, w, size, take_calls):
        field = get_field(w)
        constants = self.constants(field)
        rng = np.random.default_rng(size + w)
        plane = rng.integers(0, field.order, (len(constants), size),
                             dtype=field.element_dtype)
        out = field.mul_rows(constants, plane)
        assert out.dtype == field.element_dtype
        assert np.array_equal(
            out, field.mul_elementwise(constants[:, None], plane))
        assert take_calls == self.expected_takes(size, constants)

    def test_mul_gather_matches_elementwise(self, w, size, take_calls):
        field = get_field(w)
        constants = self.constants(field)
        rng = np.random.default_rng(size + w + 1)
        flat = rng.integers(0, field.order, size, dtype=field.element_dtype)
        # A strided 2-D view, like the batch column matrix_vector_planes
        # hands over, and the contiguous 1-D vector GFMatrix uses.
        strided = np.stack([flat, flat[::-1]], axis=1)[:, :1]
        for data in (flat, strided):
            out = field.mul_gather(constants, data)
            assert out.shape == (len(constants),) + data.shape
            assert out.dtype == field.element_dtype
            shaped = constants.reshape((-1,) + (1,) * data.ndim)
            assert np.array_equal(out, field.mul_elementwise(shaped, data))
        assert take_calls == 2 * self.expected_takes(size, constants)

    def test_out_of_range_element_raises(self, w, size):
        field = get_field(w)
        plane = np.zeros((2, size), dtype=np.uint16)
        plane[1, -1] = field.order
        with pytest.raises(IndexError):
            field.mul_rows(np.array([3, 5]), plane)
        with pytest.raises(IndexError):
            field.mul_gather(np.array([3, 5]), plane[1])


class TestTables:
    def test_inverse_table_consistency(self):
        tables = get_tables(8)
        field = get_field(8)
        for a in range(1, 256):
            assert int(tables.inv[a]) == field.inv(a)

    def test_full_tables_only_for_small_fields(self):
        assert get_tables(8).mul_table is not None
        assert get_tables(16).mul_table is None

    def test_division_table(self):
        tables = get_tables(8)
        field = get_field(8)
        for a in (0, 1, 5, 100, 255):
            for b in (1, 2, 37, 255):
                assert int(tables.div_table[a, b]) == field.div(a, b)

    def test_unsupported_word_size(self):
        with pytest.raises(ValueError):
            get_tables(5)
