"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

# Shared Hypothesis profiles for every property test: "repro" (default)
# keeps CI fast; select "repro-thorough" via REPRO_HYPOTHESIS_PROFILE for
# deeper runs.
settings.register_profile(
    "repro", max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.register_profile(
    "repro-thorough", max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "repro"))


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate the frozen fixtures under tests/golden/ from the "
             "current simulator instead of asserting against them")


@pytest.fixture
def update_golden(request):
    """True when the run should rewrite golden fixtures in place."""
    return request.config.getoption("--update-golden")

from repro.cache.vipt import L1Timing
from repro.mem.address import PageSize
from repro.mem.os_policy import MemoryManager, THPPolicy
from repro.mem.page_table import PageTable
from repro.mem.physical import PhysicalMemory


@pytest.fixture
def physical_memory():
    """64MB of physical memory backed by the buddy allocator."""
    return PhysicalMemory(64 * 1024 * 1024)


@pytest.fixture
def memory_manager(physical_memory):
    """A THP-always memory manager over the physical memory fixture."""
    return MemoryManager(physical_memory, thp_policy=THPPolicy.ALWAYS)


@pytest.fixture
def page_table():
    """An empty page table."""
    return PageTable()


@pytest.fixture
def timing_32kb():
    """Paper Table III row: 32KB at 1.33GHz (base 2 cycles, super 1)."""
    return L1Timing(base_hit_cycles=2, super_hit_cycles=1, tft_cycles=1)


@pytest.fixture
def timing_64kb():
    """Paper Table III row: 64KB at 1.33GHz (base 5 cycles, super 1)."""
    return L1Timing(base_hit_cycles=5, super_hit_cycles=1, tft_cycles=1)


def make_superpage_mapping(manager: MemoryManager, virtual_base: int):
    """Force a 2MB mapping at ``virtual_base`` and return it."""
    mapping = manager.touch(virtual_base)
    assert mapping.page_size is PageSize.SUPER_2MB, (
        "test environment could not allocate a superpage")
    return mapping
