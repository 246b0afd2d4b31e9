"""Field and trajectory body text: every float cell is exactly Python's repr.

The writers encode whole arrays at once; the oracle here builds the same body
one coefficient at a time with repr, as the writers once did.
"""
import itertools
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import dnlslab as lab
from dnlslab.reports import _coeff_text

DBL_MAX = sys.float_info.max


def repr_lines(coeffs):
    """One CSV line per coefficient: its grid index (k for a trajectory, then
    xi from -cutoff), then the real and imaginary parts as repr floats."""
    cutoff = coeffs.shape[-1] // 2
    index = itertools.product(*(map(str, range(n)) for n in coeffs.shape[:-1]),
                              map(str, range(-cutoff, cutoff + 1)))
    return [",".join(ix) + f",{c.real!r},{c.imag!r}"
            for ix, c in zip(index, coeffs.ravel().tolist())]


def body(coeffs):
    return b"".join(_coeff_text(coeffs))


def assert_cells_are_repr(values):
    """The encoded text of the floats, paired into one row of coefficients,
    equals their repr, line by line."""
    x = np.asarray(values, dtype=np.float64)
    if x.size % 2:
        x = np.append(x, 0.0)
    coeffs = x.view(np.complex128)
    got = body(coeffs).decode().splitlines()
    want = repr_lines(coeffs)
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def ulp_neighbours(values):
    v = np.asarray(values, dtype=np.float64)
    return np.concatenate([v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)])


def edge_values():
    subnormals = np.arange(1, 20_000, dtype=np.uint64).view(np.float64)
    top_subnormals = (np.uint64(2**52) - np.arange(1, 2_000, dtype=np.uint64)).view(np.float64)
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = np.concatenate([
        [0.0, 5e-324, 8e-323, 1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0,
         DBL_MAX, 0.5, 1.0, 123.0, 2.0**-1022, 2.0**53, 2.0**53 + 2.0, 1e22, 1e23],
        subnormals, top_subnormals,
        ulp_neighbours(powers_of_two), ulp_neighbours(powers_of_ten),
        np.arange(4096.0), np.arange(4096.0) / 1024.0,
    ])
    return np.concatenate([values, -values])


def test_cells_equal_repr_on_edge_values():
    values = edge_values()
    assert np.signbit(values[values == 0.0]).any()  # -0.0 is there
    assert_cells_are_repr(values)


def test_cells_equal_repr_on_the_two_exponent_widths_and_both_notations():
    coeffs = np.array([5e-324 - 8e-323j, 1e16 + 1e-4j, 9999999999999998.0 - 9.999999999999999e-05j,
                       complex(-0.0, 0.0), DBL_MAX - 1e100j])
    assert body(coeffs) == (
        b"-2,5e-324,-8e-323\n-1,1e+16,0.0001\n0,9999999999999998.0,-9.999999999999999e-05\n"
        b"1,-0.0,0.0\n2,1.7976931348623157e+308,-1e+100\n")


FINITE_BITS = st.integers(0, 2**64 - 1).filter(lambda b: (b >> 52) & 0x7FF != 0x7FF)


@settings(max_examples=60, deadline=None)
@given(st.lists(FINITE_BITS, min_size=1, max_size=40))
def test_cells_equal_repr_on_finite_bit_patterns(bits):
    assert_cells_are_repr(np.array(bits, dtype=np.uint64).view(np.float64))


def random_coeffs(rng, shape):
    scale = 10.0 ** rng.integers(-20, 3, shape)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale


def test_save_field_bytes_equal_the_repr_oracle(tmp_path):
    coeffs = random_coeffs(np.random.default_rng(5), 2 * 40 + 1)
    coeffs[::7] = 0.0
    coeffs[3] = complex(-0.0, 1.0)
    lab.save_field(tmp_path / "f.csv", coeffs)
    head = '{"cutoff":40,"kind":"field","version":"0.1.0"}'
    assert (tmp_path / "f.csv").read_text() == "\n".join(
        [head, "xi,re,im", *repr_lines(coeffs)]) + "\n"


def test_save_trajectory_bytes_equal_the_repr_oracle(tmp_path):
    # more coefficients than one encoded block, so blocks end mid-row
    coeffs = random_coeffs(np.random.default_rng(6), (31, 2 * 50 + 1))
    traj = lab.Trajectory(coeffs, 0.25)
    lab.save_trajectory(tmp_path / "t.csv", traj)
    head = ('{"cutoff":50,"cutoff_profile":null,"kind":"trajectory","steps":30,'
            '"version":"0.1.0","window":0.25}')
    assert (tmp_path / "t.csv").read_text() == "\n".join(
        [head, "k,xi,re,im", *repr_lines(coeffs)]) + "\n"


def test_body_of_two_leading_axes_equals_the_repr_oracle():
    coeffs = random_coeffs(np.random.default_rng(7), (3, 12, 2 * 3 + 1))
    assert body(coeffs).decode() == "".join(line + "\n" for line in repr_lines(coeffs))
