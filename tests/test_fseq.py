import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cobwebs.fseq import MAX_LEVEL_SIZE, FSequence, level_size, level_sizes


def gaussian_oracle(q: int, k: int) -> int:
    # direct evaluation of 1 + q + ... + q^{k-1}, with a nonempty root level
    return 1 if k == 0 else sum(q**i for i in range(k))


def test_naturals_values():
    seq = FSequence.naturals()
    assert level_size(seq, 0) == 1
    assert level_size(seq, 4) == 5
    assert level_sizes(seq, 3) == [1, 2, 3]


def test_constant_is_flat():
    seq = FSequence.constant(1)
    assert [level_size(seq, k) for k in (0, 1, 7, 100)] == [1, 1, 1, 1]


def test_gaussian_matches_direct_sum():
    seq = FSequence.gaussian(2)
    assert level_size(seq, 3) == 7
    for q in (2, 3, 5):
        seq = FSequence.gaussian(q)
        for k in range(13):
            assert level_size(seq, k) == gaussian_oracle(q, k)


def test_fibonacci_recurrence_prefix():
    assert level_sizes(FSequence.fibonacci(), 5) == [1, 1, 2, 3, 5]
    sizes = level_sizes(FSequence.fibonacci(), 20)
    assert sizes[0] == sizes[1] == 1
    for k in range(2, 20):
        assert sizes[k] == sizes[k - 1] + sizes[k - 2]


def test_explicit_roundtrip():
    values = [1, 1, 1, 2, 3, 5, 3]
    assert level_sizes(FSequence.explicit(values), 7) == values


@given(
    st.sampled_from(["naturals", "fibonacci", "gaussian:2", "gaussian:7", "constant:4"]),
    st.integers(min_value=1, max_value=16),
)
def test_level_sizes_agrees_elementwise(spec, n):
    seq = FSequence.parse(spec)
    assert level_sizes(seq, n) == [level_size(seq, k) for k in range(n)]


@given(
    st.sampled_from(["naturals", "fibonacci", "gaussian:3", "constant:2"]),
    st.integers(min_value=0, max_value=30),
)
def test_values_are_positive(spec, k):
    assert level_size(FSequence.parse(spec), k) >= 1


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=20))
def test_gaussian_recurrence_from_first_level(q, k):
    # value(k+1) = q * value(k) + 1 holds from k = 1 on; the root level is
    # pinned to size 1 rather than the empty q-integer, so k = 0 is exempt.
    seq = FSequence.gaussian(q)
    assert level_size(seq, k + 1) == q * level_size(seq, k) + 1


def test_explicit_out_of_range():
    seq = FSequence.explicit([1, 2])
    with pytest.raises(IndexError):
        level_size(seq, 2)


def test_invalid_constructions():
    with pytest.raises(ValueError):
        FSequence.explicit([])
    with pytest.raises(ValueError):
        FSequence.explicit([1, 0, 2])
    with pytest.raises(ValueError):
        FSequence.gaussian(1)
    with pytest.raises(ValueError):
        FSequence.constant(0)
    with pytest.raises(ValueError):
        level_size(FSequence.naturals(), -1)
    with pytest.raises(ValueError):
        level_sizes(FSequence.naturals(), 0)


def test_explicit_rejects_non_integer_sizes():
    with pytest.raises(ValueError, match="explicit sizes must be integers, got 2.9"):
        FSequence.explicit([2.9])
    assert FSequence.explicit(np.array([2, 3])).values == (2, 3)


@pytest.mark.parametrize("values, bad", [((1.5, 2), "1.5"), (("a",), "'a'")])
def test_constructor_checks_explicit_sizes_as_the_classmethod_does(values, bad):
    with pytest.raises(ValueError, match=f"explicit sizes must be integers, got {bad}"):
        FSequence("explicit", values=values)
    assert FSequence("explicit", values=np.array([2, 3])) == FSequence.explicit([2, 3])


def test_level_sizes_holds_explicit_sequences_to_their_length():
    with pytest.raises(ValueError, match="level count 2 disagrees with 3 explicit sizes"):
        level_sizes(FSequence.explicit([1, 2, 3]), 2)


@pytest.mark.parametrize("make, bad, what", [
    (FSequence.gaussian, 2.5, "gaussian base"),
    (FSequence.gaussian, "2", "gaussian base"),
    (FSequence.constant, 2.5, "constant value"),
    (FSequence.constant, "3", "constant value"),
])
def test_parameters_must_be_integers(make, bad, what):
    with pytest.raises(ValueError, match=f"{what} must be an integer >= .*, got {bad}"):
        make(bad)


@pytest.mark.parametrize("kind, params, name", [
    ("naturals", {"q": 5, "values": (1.5,)}, "q"),
    ("constant", {"c": 3, "values": ("x",)}, "values"),
    ("fibonacci", {"c": 2}, "c"),
    ("gaussian", {"q": 2, "values": ()}, "values"),
    ("explicit", {"values": (1, 2), "q": 2}, "q"),
])
def test_a_kind_takes_only_its_own_parameter(kind, params, name):
    with pytest.raises(ValueError, match=f"^{kind} sequence takes no {name}$"):
        FSequence(kind, **params)


def test_numpy_integer_parameters_become_python_ints():
    q, c = FSequence.gaussian(np.int64(3)).q, FSequence.constant(np.uint8(4)).c
    assert (q, c) == (3, 4) and type(q) is int and type(c) is int
    # F_40 fits in 64 bits but 3**40 does not: a numpy base would wrap around
    assert level_size(FSequence.gaussian(np.int64(3)), 40) == (3**40 - 1) // 2


def test_parse_specs():
    assert FSequence.parse("naturals").kind == "naturals"
    assert FSequence.parse("fibonacci").kind == "fibonacci"
    assert FSequence.parse("gaussian:2") == FSequence.gaussian(2)
    assert FSequence.parse("constant:3") == FSequence.constant(3)
    assert FSequence.parse("explicit:1,1,2,3,5") == FSequence.explicit([1, 1, 2, 3, 5])
    for bad in ("gauss:2", "gaussian:x", "gaussian", "explicit:", "constant:0", "",
                "naturals:5", "fibonacci:", "fibonacci:x"):
        with pytest.raises(ValueError):
            FSequence.parse(bad)
    with pytest.raises(ValueError, match="'naturals:5': naturals takes no argument"):
        FSequence.parse("naturals:5")


def test_oversized_values_reported_not_produced():
    seq = FSequence.gaussian(2)
    assert level_size(seq, 63) == MAX_LEVEL_SIZE  # exactly at the cap
    with pytest.raises(OverflowError):
        level_size(seq, 64)
