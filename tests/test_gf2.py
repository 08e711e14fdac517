import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scattersim.gf2 import BitMatrix, BitVector, DimensionError, SingularMatrixError


def random_vector(rng, n):
    return BitVector(rng.getrandbits(n) if n else 0, n)


def random_matrix(rng, n, m):
    return BitMatrix((rng.getrandbits(m) if m else 0 for _ in range(n)), m)


def random_invertible(rng, n):
    while True:
        m = random_matrix(rng, n, n)
        if m.rank() == n:
            return m


class TestBitVector:
    def test_construction_and_str(self):
        v = BitVector.from_bits("10110")
        assert len(v) == 5
        assert str(v) == "10110"
        assert list(v) == [1, 0, 1, 1, 0]
        assert v[0] == 1 and v[4] == 0 and v[-1] == 0

    def test_value_rejects_overflow(self):
        with pytest.raises(ValueError):
            BitVector(4, 2)

    def test_xor_rejects_length_mismatch(self):
        with pytest.raises(DimensionError, match="5 vs 7"):
            BitVector.zeros(5) ^ BitVector.zeros(7)

    def test_slice_and_concat(self):
        v = BitVector.from_bits("11010011")
        assert str(v[2:5]) == "010"
        assert v[:3] + v[3:] == v

    def test_flip_range(self):
        v = BitVector.zeros(8).flip_range(2, 5)
        assert str(v) == "00111000"

    def test_bytes_roundtrip_both_orders(self):
        data = bytes(range(7))
        for lsb in (False, True):
            assert BitVector.from_bytes(data, lsb).to_bytes(lsb) == data

    def test_reversed_bits(self):
        rng = random.Random(5)
        for n in (0, 1, 5, 8, 32, 77):
            v = random_vector(rng, n)
            assert list(v.reversed_bits()) == list(v)[::-1]
            assert len(v.reversed_bits()) == n

    def test_unit_and_popcount(self):
        e = BitVector.unit(6, 2)
        assert str(e) == "001000"
        assert e.popcount() == 1


class TestVectorMatrix:
    def test_zero_vector_annihilates(self):
        rng = random.Random(0)
        m = random_matrix(rng, 32, 32)
        assert BitVector.zeros(32) @ m == BitVector.zeros(32)

    def test_unit_vector_extracts_row(self):
        rng = random.Random(1)
        m = random_matrix(rng, 8, 5)
        for i in range(8):
            assert BitVector.unit(8, i) @ m == m.row(i)

    def test_identity_matrix(self):
        v = BitVector.from_bits("10110")
        assert v @ BitMatrix.identity(5) == v

    def test_dimension_error_names_both(self):
        with pytest.raises(DimensionError, match="1x3.*4x2"):
            BitVector.zeros(3) @ BitMatrix([0] * 4, 2)


class TestMatMul:
    def test_identity_times_matrix(self):
        rng = random.Random(2)
        b = random_matrix(rng, 4, 4)
        assert BitMatrix.identity(4) @ b == b

    def test_zero_times_matrix(self):
        rng = random.Random(3)
        b = random_matrix(rng, 3, 3)
        assert BitMatrix([0] * 3, 3) @ b == BitMatrix([0] * 3, 3)

    def test_dimension_error(self):
        with pytest.raises(DimensionError, match="2x3.*4x2"):
            BitMatrix([0] * 2, 3) @ BitMatrix([0] * 4, 2)

    def test_power(self):
        rng = random.Random(4)
        m = random_matrix(rng, 6, 6)
        assert m**0 == BitMatrix.identity(6)
        assert m**1 == m
        assert m**5 == m @ m @ m @ m @ m


class TestRankInvert:
    def test_rank_zero_and_identity(self):
        assert BitMatrix([0] * 8, 8).rank() == 0
        assert BitMatrix.identity(32).rank() == 32

    def test_invert_identity(self):
        assert BitMatrix.identity(7).invert() == BitMatrix.identity(7)

    def test_permutation_inverse_is_inverse_permutation(self):
        rng = random.Random(5)
        perm = list(range(9))
        rng.shuffle(perm)
        p = BitMatrix((1 << (9 - 1 - perm[i]) for i in range(9)), 9)
        inverse = BitMatrix((1 << (9 - 1 - perm.index(j)) for j in range(9)), 9)
        assert p.invert() == inverse

    def test_singular_reports_rank(self):
        m = BitMatrix([0b110, 0b110, 0b001], 3)
        with pytest.raises(SingularMatrixError) as err:
            m.invert()
        assert err.value.rank == 2
        assert "rank = 2" in str(err.value)

    def test_rank_iff_invertible(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randrange(1, 12)
            m = random_matrix(rng, n, n)
            if m.rank() == n:
                assert m @ m.invert() == BitMatrix.identity(n)
            else:
                with pytest.raises(SingularMatrixError):
                    m.invert()

    def test_double_inverse_is_identity_map(self):
        # 100 invertible matrices across sizes 1..64
        rng = random.Random(7)
        for i in range(100):
            n = rng.randrange(1, 65)
            m = random_invertible(rng, n)
            assert m.invert().invert() == m


class TestAlgebraProperties:
    @given(st.data())
    @settings(max_examples=60)
    def test_mixed_associativity(self, data):
        n = data.draw(st.integers(1, 24))
        m = data.draw(st.integers(1, 24))
        k = data.draw(st.integers(1, 24))
        v = BitVector(data.draw(st.integers(0, 2**n - 1)), n)
        a = BitMatrix(
            (data.draw(st.integers(0, 2**m - 1)) for _ in range(n)), m
        )
        b = BitMatrix(
            (data.draw(st.integers(0, 2**k - 1)) for _ in range(m)), k
        )
        assert (v @ a) @ b == v @ (a @ b)

    @given(st.data())
    @settings(max_examples=60)
    def test_linearity(self, data):
        n = data.draw(st.integers(1, 32))
        k = data.draw(st.integers(1, 32))
        u = BitVector(data.draw(st.integers(0, 2**n - 1)), n)
        v = BitVector(data.draw(st.integers(0, 2**n - 1)), n)
        m = BitMatrix(
            (data.draw(st.integers(0, 2**k - 1)) for _ in range(n)), k
        )
        assert (u ^ v) @ m == (u @ m) ^ (v @ m)

    def test_str_renders_rows(self):
        m = BitMatrix([0b10, 0b01], 2)
        assert str(m) == "10\n01"
