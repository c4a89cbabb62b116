"""Receiver time-series utilities: filtering, spectra, arrival picking."""

from __future__ import annotations

import numpy as np

__all__ = ["bandpass", "lowpass", "amplitude_spectrum", "dominant_period",
           "pick_arrival", "l2_misfit"]


def lowpass(series: np.ndarray, dt: float, f_cut: float, order: int = 4
            ) -> np.ndarray:
    """Zero-phase Butterworth low-pass (the paper's 2 Hz conditioning)."""
    nyq = 0.5 / dt
    if f_cut >= nyq:
        return np.asarray(series, dtype=np.float64).copy()
    from scipy.signal import butter, filtfilt   # deferred: slow import
    b, a = butter(order, f_cut / nyq)
    return filtfilt(b, a, series)


def bandpass(series: np.ndarray, dt: float, f_lo: float, f_hi: float,
             order: int = 4) -> np.ndarray:
    """Zero-phase Butterworth band-pass between ``f_lo`` and ``f_hi`` Hz."""
    nyq = 0.5 / dt
    if not 0 < f_lo < f_hi:
        raise ValueError("need 0 < f_lo < f_hi")
    hi = min(f_hi / nyq, 0.99)
    from scipy.signal import butter, filtfilt   # deferred: slow import
    b, a = butter(order, [f_lo / nyq, hi], btype="band")
    return filtfilt(b, a, series)


def amplitude_spectrum(series: np.ndarray, dt: float
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(frequencies, |FFT|) of a real series."""
    series = np.asarray(series, dtype=np.float64)
    spec = np.abs(np.fft.rfft(series)) * dt
    freqs = np.fft.rfftfreq(series.size, d=dt)
    return freqs, spec


def dominant_period(series: np.ndarray, dt: float,
                    f_min: float = 0.05) -> float:
    """Period of the spectral peak (the San Bernardino 2–4 s diagnosis)."""
    freqs, spec = amplitude_spectrum(series, dt)
    mask = freqs >= f_min
    if not mask.any():
        raise ValueError("series too short for the requested f_min")
    f_peak = freqs[mask][np.argmax(spec[mask])]
    return float(1.0 / f_peak)


def pick_arrival(series: np.ndarray, dt: float, threshold: float = 0.05
                 ) -> float:
    """First time |v| exceeds ``threshold`` x peak (onset picking)."""
    v = np.abs(np.asarray(series))
    peak = v.max()
    if peak == 0:
        raise ValueError("flat series has no arrival")
    idx = int(np.argmax(v > threshold * peak))
    return (idx + 1) * dt


def l2_misfit(a: np.ndarray, b: np.ndarray) -> float:
    """Normalised L2 waveform misfit — the aVal acceptance metric (III.H)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("series lengths differ")
    denom = np.linalg.norm(b)
    if denom == 0:
        return float(np.linalg.norm(a) > 0)
    return float(np.linalg.norm(a - b) / denom)
