"""Permutation, coordinate reduction and inflation behavior."""
import doctest
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permpat import core
from permpat.core import (
    Permutation,
    colayered,
    deflate,
    delete_leftmost,
    inflate,
    layered,
    reduce_coordinates,
    standardize,
)


@st.composite
def permutations(draw, min_n=0, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    return Permutation(draw(st.permutations(list(range(1, n + 1)))))


@st.composite
def point_sets_general_position(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    xs = draw(st.permutations(list(range(1, n + 1))))
    ys = draw(st.permutations(list(range(1, n + 1))))
    return list(zip(xs, ys))


class TestPermutation:
    def test_valid_construction(self):
        assert Permutation((2, 1)).values == (2, 1)
        assert Permutation(()).values == ()

    @pytest.mark.parametrize("bad", [(1, 1), (2,), (0, 1), (1, 3)])
    def test_rejects_non_bijections(self, bad):
        with pytest.raises(ValueError):
            Permutation(bad)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((1, 3, 3), "value 3 at position 3 repeats"),
            ((2, 0, 1), "value 0 at position 2 is out of range"),
            ((4, 1, 1), "value 4 at position 1 is out of range"),
            ((1, 2, -4, 4), "value -4 at position 3 is out of range"),
        ],
    )
    def test_error_names_only_the_first_offence(self, bad, message):
        n = len(bad)
        with pytest.raises(ValueError) as err:
            Permutation(bad)
        assert str(err.value) == f"not a bijection on 1..{n}: {message}"

    def test_values_outside_a_c_long_rejected(self):
        for make in (lambda: Permutation((2**70, 1)), lambda: Permutation.parse("1 " + "9" * 30)):
            with pytest.raises(ValueError, match="not a bijection"):
                make()

    def test_accepts_any_iterable_of_ints(self):
        assert Permutation(iter((2, 3, 1))).values == (2, 3, 1)

    def test_refuses_non_integers(self):
        # int() would truncate 2.7 to 2 and read "2": neither is a value
        for values in ([2.7, 1.2], ["2", "1"]):
            with pytest.raises(TypeError):
                Permutation(values)
        # text is the user's input, refused with ValueError like any bad text
        with pytest.raises(ValueError):
            Permutation.parse("2.7 1.2")

    def test_sequence_behaviour(self):
        p = Permutation.parse("2 4 1 5 3")
        assert hash(p) == hash((2, 4, 1, 5, 3))
        assert p == Permutation((2, 4, 1, 5, 3)) and p != Permutation.parse("21")
        assert list(p) == [2, 4, 1, 5, 3] and p[-1] == 3 and p[1:3] == (4, 1)
        assert repr(p) == "Permutation((2, 4, 1, 5, 3))"

    def test_parse_whitespace_form(self):
        assert Permutation.parse("2 4 1 5 3").values == (2, 4, 1, 5, 3)
        assert Permutation.parse(" 1 ").values == (1,)
        assert Permutation.parse("").values == ()

    def test_parse_digit_string(self):
        assert Permutation.parse("24153").values == (2, 4, 1, 5, 3)
        assert Permutation.parse("12").values == (1, 2)

    def test_parse_digit_string_rejects_ten_elements(self):
        # digit-string shorthand cannot express values above 9
        with pytest.raises(ValueError):
            Permutation.parse("1234567891")

    def test_round_trip_text(self):
        p = Permutation.parse("3 1 2")
        assert Permutation.parse(p.to_text()) == p

    def test_parse_with_text(self):
        # a canonical input is its own text, less one final newline; any
        # other input gets to_text()
        canonical = "3 1 2"
        p, text = Permutation.parse_with_text(canonical)
        assert p == Permutation((3, 1, 2)) and text is canonical
        assert Permutation.parse_with_text("3 1 2\n") == (p, "3 1 2")
        for other in ("312", " 3 1 2", "3\t1 2", "03 1 2", "3 1 2\n\n", "+3 1 2"):
            assert Permutation.parse_with_text(other) == (p, "3 1 2")
        assert Permutation.parse_with_text("") == (Permutation(()), "")
        with pytest.raises(ValueError, match="position 2 repeats"):
            Permutation.parse_with_text("1 1")

    def test_reverse_complement(self):
        p = Permutation.parse("24153")
        assert p.reverse().values == (3, 5, 1, 4, 2)
        assert p.complement().values == (4, 2, 5, 1, 3)

    def test_immutable(self):
        p = Permutation.parse("21")
        with pytest.raises(AttributeError):
            p.values = (1, 2)


class TestPointSet:
    """A point set is a list of (x, y) pairs; reduce_coordinates checks it."""

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError, match="degenerate point set"):
            reduce_coordinates([(1, 1), (1, 1)])

    def test_allows_shared_single_coordinate(self):
        assert len(reduce_coordinates([(1, 1), (1, 2), (2, 1)])) == 3


class TestDiagramAndReduce:
    def test_reduce_general_position(self):
        assert reduce_coordinates([(1, 2), (2, 1)]) == Permutation.parse("21")

    def test_reduce_tie_in_x(self):
        # clockwise limit: among equal x, the higher point ends up later
        assert reduce_coordinates([(1, 1), (1, 2), (2, 3)]) == Permutation.parse("123")

    def test_reduce_tie_in_y(self):
        # clockwise limit: among equal y, the righter point ends up lower
        assert reduce_coordinates([(1, 1), (2, 1)]) == Permutation.parse("21")

    def test_reduce_rejects_coinciding_points(self):
        with pytest.raises(ValueError, match="degenerate point set"):
            reduce_coordinates([(1, 2), (3, 1), (1, 2)])

    def test_round_trip_exhaustive_small(self):
        for n in range(8):
            for vals in itertools.permutations(range(1, n + 1)):
                p = Permutation(vals)
                assert reduce_coordinates(list(enumerate(vals, start=1))) == p

    @given(point_sets_general_position())
    @settings(max_examples=150)
    def test_reduce_invariant_under_rescaling(self, pts):
        base = reduce_coordinates(pts)
        rescaled = [(3 * x + 17, 11 * y - 5) for x, y in pts]
        assert reduce_coordinates(rescaled) == base

    @given(st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
                    min_size=1, max_size=10, unique=True))
    @settings(max_examples=300)
    def test_tie_break_matches_exact_clockwise_rotation(self, coords):
        # the (x, y) / (y, -x) keys must equal an exact small clockwise
        # rotation with tangent 1/(4 * max|coordinate|^2)
        tied = reduce_coordinates(coords)
        m = max(max(abs(x), abs(y)) for x, y in coords) or 1
        t = Fraction(1, 4 * m * m)
        rotated = reduce_coordinates(
            [(Fraction(x) + t * y, Fraction(y) - t * x) for x, y in coords]
        )
        assert rotated == tied


class TestInflate:
    def test_paper_shape_example(self):
        blocks = [Permutation.parse(s) for s in ("21", "1", "123")]
        assert inflate(Permutation.parse("132"), blocks) == Permutation((2, 1, 6, 3, 4, 5))

    def test_identity_inflation(self):
        sigma = Permutation.parse("3142")
        one = Permutation((1,))
        assert inflate(sigma, [one] * 4) == sigma

    def test_singleton_base(self):
        assert inflate(Permutation((1,)), [Permutation.parse("24153")]) == Permutation.parse("24153")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            inflate(Permutation.parse("12"), [Permutation((1,))])

    def test_empty_block(self):
        with pytest.raises(ValueError, match="empty block"):
            inflate(Permutation.parse("12"), [Permutation((1,)), Permutation(())])

    @given(permutations(min_n=1, max_n=5),
           st.lists(st.integers(1, 3), min_size=1, max_size=5))
    @settings(max_examples=200)
    def test_inflation_length_and_deflation(self, sigma, sizes):
        sizes = (sizes * len(sigma))[: len(sigma)]
        blocks = [layered([s]) for s in sizes]
        inflated = inflate(sigma, blocks)
        assert len(inflated) == sum(sizes)
        assert deflate(inflated, sizes) == sigma


class TestLayeredColayered:
    def test_layered_examples(self):
        assert layered([2, 1, 3]) == Permutation((2, 1, 3, 6, 5, 4))
        assert layered([1, 1, 1]) == Permutation.parse("123")
        assert layered([3]) == Permutation.parse("321")

    def test_colayered_examples(self):
        assert colayered([2, 2]) == Permutation((3, 4, 1, 2))
        assert colayered([1, 1]) == Permutation.parse("21")
        assert colayered([4]) == Permutation.parse("1234")

    @pytest.mark.parametrize("fn", [layered, colayered])
    def test_zero_size_rejected(self, fn):
        with pytest.raises(ValueError, match="zero size"):
            fn([2, 0])

    def test_agree_with_inflation_all_compositions(self):
        # layered = inflation of increasing by decreasings; co-layered dually
        for total in range(1, 9):
            for cuts in itertools.product([0, 1], repeat=total - 1):
                sizes = []
                run = 1
                for c in cuts:
                    if c:
                        sizes.append(run)
                        run = 1
                    else:
                        run += 1
                sizes.append(run)
                m = len(sizes)
                dec_blocks = [Permutation.decreasing(s) for s in sizes]
                inc_blocks = [Permutation.increasing(s) for s in sizes]
                assert inflate(Permutation.increasing(m), dec_blocks) == layered(sizes)
                assert inflate(Permutation.decreasing(m), inc_blocks) == colayered(sizes)


class TestDeleteLeftmostAndStandardize:
    def test_examples(self):
        assert delete_leftmost(Permutation.parse("24153")) == Permutation.parse("3142")
        assert delete_leftmost(Permutation((1,))) == Permutation(())
        assert delete_leftmost(Permutation.parse("12")) == Permutation((1,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            delete_leftmost(Permutation(()))

    def test_standardize(self):
        assert standardize((4, 1, 5, 3)) == Permutation((3, 1, 4, 2))
        with pytest.raises(ValueError):
            standardize((1, 1))

    @given(permutations(min_n=1))
    @settings(max_examples=100)
    def test_delete_leftmost_matches_point_removal(self, p):
        pairs = list(enumerate(p, start=1))
        assert delete_leftmost(p) == reduce_coordinates(pairs[1:])


def test_docstring_examples():
    failed, attempted = doctest.testmod(core)
    assert failed == 0
    assert attempted >= 7
