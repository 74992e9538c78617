"""Quantitative evaluation metrics: the normalized squared-l2 error, which
serves as data fit and reconstruction error alike, and the SNR in dB."""

import numpy as np

from .errors import ConfigError, DimensionError


def _pair(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionError(f"shapes differ: {a.shape} vs {b.shape}")
    return a, b


def normalized_error(u_hat, u_true):
    """||u_hat - u_true||^2 / ||u_true||^2."""
    u_hat, u_true = _pair(u_hat, u_true)
    denom = float(np.vdot(u_true, u_true).real)
    if denom == 0.0:
        raise ConfigError("reference field has zero norm")
    diff = u_hat - u_true
    return float(np.vdot(diff, diff).real) / denom


def snr_db(f_hat, f_ref):
    """10 log10(||f_ref||^2 / ||f_hat - f_ref||^2); +inf on exact equality."""
    f_hat, f_ref = _pair(f_hat, f_ref)
    ref = float(np.vdot(f_ref, f_ref).real)
    if ref == 0.0:
        raise ConfigError("reference has zero norm")
    diff = f_hat - f_ref
    err = float(np.vdot(diff, diff).real)
    if err == 0.0:
        return float("inf")
    return 10.0 * np.log10(ref / err)
