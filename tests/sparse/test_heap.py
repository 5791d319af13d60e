"""Explicit glibc heap thresholds (``repro.sparse.heap``)."""

import platform

import pytest

from repro.sparse.heap import tune_heap


def test_process_settings_win(monkeypatch):
    monkeypatch.setenv("MALLOC_TRIM_THRESHOLD_", "131072")
    assert tune_heap() is False


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc")
def test_applied_on_glibc(monkeypatch):
    for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
                 "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_"):
        monkeypatch.delenv(name, raising=False)
    assert tune_heap() is True
