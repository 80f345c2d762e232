"""The vectorised ``%.17g`` of ``_text.fields`` against ``'%.17g' %``."""

from decimal import Decimal

import numpy as np
import pytest

from hopf_critic import _text

# values formatted at a time, so a million take a few MiB
CHUNK = 1 << 16


def assert_matches_percent_g(values):
    values = np.asarray(values, dtype=np.float64)
    for start in range(0, values.size, CHUNK):
        part = values[start:start + CHUNK]
        chars, valid = _text.fields(part)
        assert chars.shape == valid.shape == (part.size, _text.FIELD)
        got = chars[valid].tobytes()
        want = "".join("%.17g" % v for v in part.tolist()).encode()
        if got != want:
            for i, v in enumerate(part.tolist()):
                text = chars[i][valid[i]].tobytes().decode()
                assert text == "%.17g" % v, (v, text)
        # every field is a prefix of its row
        lengths = valid.sum(axis=1)
        assert (valid == (np.arange(_text.FIELD) < lengths[:, None])).all()


def test_random_bit_patterns_reach_every_exponent():
    rng = np.random.default_rng(20241019)
    values = rng.integers(0, 2 ** 64 - 1, size=10 ** 6, dtype=np.uint64,
                          endpoint=True).view(np.float64)
    finite = values[np.isfinite(values)]
    assert np.isnan(values).any()
    assert (np.abs(finite) < np.finfo(float).tiny).any()
    assert ((np.abs(finite) >= 1e-4) & (np.abs(finite) < 1e17)).any()
    assert_matches_percent_g(values)


def test_powers_of_ten_and_their_neighbours():
    powers = 10.0 ** np.arange(-30, 21)
    values = np.concatenate([powers, np.nextafter(powers, 0.0),
                             np.nextafter(powers, np.inf)])
    assert_matches_percent_g(np.concatenate([values, -values]))


def test_half_way_cases_round_to_even():
    # n * 2**-j with n odd is exactly n * 5**j / 10**j: with 18 significant
    # digits it ends in 5, half way between two 17-digit values; below
    # j = 2 no double has 18 significant digits after the point
    rng = np.random.default_rng(7)
    ties = []
    for j in range(1, 12):
        low = -(-10 ** 17 // 5 ** j)
        high = min(10 ** 18 // 5 ** j, 2 ** 53)
        if low >= high:
            continue
        n = rng.integers(low, high, size=20000) | 1
        ties.append(np.ldexp(n.astype(np.float64), -j))
    ties = np.concatenate(ties)
    assert ties.size == 200000
    for v in ties[::997].tolist():
        digits = Decimal(v).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    assert_matches_percent_g(np.concatenate([ties, -ties]))


@pytest.mark.parametrize("edge", [1e-5, 1e-4, 1e16, 1e17])
def test_notation_switches(edge):
    values = np.array([edge, np.nextafter(edge, 0.0),
                       np.nextafter(edge, np.inf)])
    assert_matches_percent_g(np.concatenate([values, -values]))


def test_special_values():
    tiny = np.finfo(float).tiny
    values = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                       tiny, np.nextafter(tiny, 0.0), np.finfo(float).max,
                       1.0, -1.0, 0.5, 1e-4 * 9.999999999999999])
    assert_matches_percent_g(values)
    assert_matches_percent_g(np.zeros(0))
