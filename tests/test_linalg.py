"""Shared numerical helpers: the Kronecker product of the block builders."""

import numpy as np
import pytest

from teamlqg.linalg import as_matrix, kron, spectral_radius

SHAPES = [((1, 1), (1, 1)), ((1, 1), (2, 3)), ((3, 2), (1, 1)),
          ((1, 3), (1, 2)), ((3, 1), (2, 1)), ((1, 4), (3, 1)),
          ((2, 3), (3, 2)), ((3, 2), (2, 4))]


def _with_signed_zeros(rng, shape):
    """Normal entries, about a third of them replaced by +0.0 or -0.0."""
    M = rng.standard_normal(shape)
    zeros = rng.random(shape) < 0.35
    M[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
    return M


def _assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("xs, ys", SHAPES, ids=[
    f"{a}x{b}-{c}x{d}" for (a, b), (c, d) in SHAPES])
def test_kron_matches_numpy_bitwise(xs, ys):
    rng = np.random.default_rng(sum(xs) * 10 + sum(ys))
    for _ in range(20):
        X, Y = _with_signed_zeros(rng, xs), _with_signed_zeros(rng, ys)
        _assert_bitwise(kron(X, Y), np.kron(X, Y))


def test_kron_keeps_the_sign_of_zero_products():
    X = np.array([[0.0, -0.0], [-1.5, 2.0]])
    Y = np.array([[-0.0, 3.0, -2.0]])
    got = kron(X, Y)
    _assert_bitwise(got, np.kron(X, Y))
    assert np.signbit(got[0, :3]).tolist() == [True, False, True]
    assert np.signbit(got[0, 3:]).tolist() == [False, True, False]


@pytest.mark.parametrize("make, named", [
    (lambda: as_matrix([["x"]], "Q"), "Q is not a numeric matrix"),
    (lambda: as_matrix([1.0, 2.0], "Q"), "Q must be 2-D"),
    (lambda: spectral_radius(np.ones((2, 3))),
     "spectral_radius needs a square matrix"),
], ids=["not-numeric", "not-2d", "radius-not-square"])
def test_input_error_names_its_field(make, named):
    with pytest.raises(ValueError) as info:
        make()
    assert info.type is ValueError
    assert named in str(info.value)
