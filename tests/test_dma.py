"""Tests for repro.accelerator.dma (request accounting)."""

import pytest

from repro.accelerator.dma import MEM_REQUEST_BYTES, bytes_to_requests


class TestConversions:
    def test_zero_bytes(self):
        assert bytes_to_requests(0) == 0

    def test_exact_multiple(self):
        assert bytes_to_requests(128) == 2

    def test_rounds_up(self):
        assert bytes_to_requests(65) == 2
        assert bytes_to_requests(1) == 1

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            bytes_to_requests(-1)

    def test_round_trip_upper_bound(self):
        n = 1000
        assert bytes_to_requests(n) * MEM_REQUEST_BYTES >= n
