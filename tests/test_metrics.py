import numpy as np
import pytest

import wavetomo as wt


def test_normalized_error_examples(rng):
    u = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    assert wt.normalized_error(u, u) == 0.0
    assert wt.normalized_error(np.zeros(20), u) == 1.0
    assert wt.normalized_error(2.0 * u, u) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        wt.normalized_error(u, np.zeros(20))


def test_normalized_error_scale_invariant(rng):
    u = rng.standard_normal(15)
    v = rng.standard_normal(15)
    base = wt.normalized_error(u, v)
    assert wt.normalized_error(-3.7 * u, -3.7 * v) == pytest.approx(base)


def test_snr_examples(rng):
    f = rng.standard_normal(30)
    assert wt.snr_db(np.zeros(30), f) == pytest.approx(0.0)
    assert wt.snr_db(f, f) == np.inf
    noisy = f + 0.1 * np.linalg.norm(f) * np.ones(30) / np.sqrt(30)
    assert wt.snr_db(noisy, f) == pytest.approx(20.0)


def test_snr_decreases_with_noise(rng):
    f = rng.standard_normal(50)
    noise = rng.standard_normal(50)
    levels = [0.01, 0.1, 0.5, 1.0]
    snrs = [wt.snr_db(f + a * noise, f) for a in levels]
    assert all(s1 > s2 for s1, s2 in zip(snrs, snrs[1:]))
