"""Tests for simlint: each rule fires on an injected violation, suppression
comments work, the JSON report is machine-readable, and — the gate CI
enforces — the repository's own ``src/`` tree is clean."""

import json
from pathlib import Path

import pytest

from repro.devtools.simlint.cli import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    lint,
    main,
)

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return str(path)


def rules_of(findings):
    return sorted(finding.rule for finding in findings)


class TestCounterDrift:
    def test_unwritten_stats_field_flagged(self, tmp_path):
        path = write(tmp_path, "stats.py", """\
from dataclasses import dataclass


@dataclass
class FooStats:
    hits: int = 0
    misses: int = 0


def bump(stats):
    stats.hits += 1


def rate(stats):
    return stats.hits
""")
        findings = lint([path], select=["SL001"])
        assert rules_of(findings) == ["SL001"]
        assert "FooStats.misses" in findings[0].message

    def test_write_only_stats_field_flagged(self, tmp_path):
        path = write(tmp_path, "stats.py", """\
from dataclasses import dataclass


@dataclass
class BazStats:
    hits: int = 0
    evictions: int = 0

    @property
    def churn(self):
        return self.evictions   # its own class does not count as a reader


def bump(stats):
    stats.hits += 1
    stats.evictions += 1
    return stats.hits
""")
        findings = lint([path], select=["SL001"])
        assert rules_of(findings) == ["SL001"]
        assert "BazStats.evictions" in findings[0].message
        assert "never read" in findings[0].message

    def test_stats_field_read_through_getattr_is_clean(self, tmp_path):
        path = write(tmp_path, "stats.py", """\
from dataclasses import dataclass


@dataclass
class QuxStats:
    hits: int = 0


@dataclass
class QuxResult:
    cycles: int = 0


def bump(stats, result):
    stats.hits += 1
    result.cycles += 1   # a *Result field needs only a writer


def report(stats):
    return getattr(stats, "hits")
""")
        assert lint([path], select=["SL001"]) == []

    def test_written_via_keyword_is_clean(self, tmp_path):
        path = write(tmp_path, "stats.py", """\
from dataclasses import dataclass


@dataclass
class BarResult:
    cycles: int = 0


def make():
    return BarResult(cycles=5)
""")
        assert lint([path], select=["SL001"]) == []


class TestDeterminism:
    def test_global_random_call_flagged(self, tmp_path):
        path = write(tmp_path, "rng.py", """\
import random


def roll():
    return random.randint(0, 6)
""")
        findings = lint([path], select=["SL002"])
        assert rules_of(findings) == ["SL002"]
        assert "random.randint" in findings[0].message

    def test_unseeded_default_rng_flagged(self, tmp_path):
        path = write(tmp_path, "rng.py", """\
import numpy as np


def make():
    return np.random.default_rng()
""")
        findings = lint([path], select=["SL002"])
        assert rules_of(findings) == ["SL002"]
        assert "unseeded" in findings[0].message

    def test_seeded_rng_is_clean(self, tmp_path):
        path = write(tmp_path, "rng.py", """\
import numpy as np


def make(seed):
    return np.random.default_rng(seed)
""")
        assert lint([path], select=["SL002"]) == []

    def test_set_iteration_flagged(self, tmp_path):
        path = write(tmp_path, "iterate.py", """\
def visit(graph):
    pending = {3, 1, 2}
    for node in pending:
        graph.touch(node)
""")
        findings = lint([path], select=["SL002"])
        assert rules_of(findings) == ["SL002"]
        assert "hash-dependent" in findings[0].message

    def test_sorted_set_iteration_is_clean(self, tmp_path):
        path = write(tmp_path, "iterate.py", """\
def visit(graph):
    pending = {3, 1, 2}
    for node in sorted(pending):
        graph.touch(node)
""")
        assert lint([path], select=["SL002"]) == []


class TestConfigHygiene:
    CONFIG = """\
from dataclasses import dataclass


@dataclass
class SimConfig:
    used_knob: int = 1
    dead_knob: int = 2


def consume(config):
    return config.used_knob


def build():
    return SimConfig(used_knob=3, wrong_knob=4)
"""

    def test_dead_field_and_unknown_keyword_flagged(self, tmp_path):
        path = write(tmp_path, "sim/config.py", self.CONFIG)
        findings = lint([path], select=["SL003"])
        assert rules_of(findings) == ["SL003", "SL003"]
        messages = " ".join(finding.message for finding in findings)
        assert "SimConfig.dead_knob" in messages
        assert "wrong_knob" in messages

    def test_rule_scoped_to_sim_config_module(self, tmp_path):
        # The identical code outside sim/config.py is not a config module.
        path = write(tmp_path, "other.py", self.CONFIG)
        assert lint([path], select=["SL003"]) == []


class TestUnitMixing:
    def test_cycles_plus_ns_flagged(self, tmp_path):
        path = write(tmp_path, "units.py", """\
def total(lat_cycles, dram_ns):
    return lat_cycles + dram_ns
""")
        findings = lint([path], select=["SL004"])
        assert rules_of(findings) == ["SL004"]
        assert "lat_cycles" in findings[0].message

    def test_converted_quantities_are_clean(self, tmp_path):
        path = write(tmp_path, "units.py", """\
def total(lat_cycles, dram_ns, period_ns):
    return lat_cycles * period_ns + dram_ns
""")
        assert lint([path], select=["SL004"]) == []


class TestSilentException:
    def test_bare_except_and_silent_broad_handler_flagged(self, tmp_path):
        path = write(tmp_path, "handlers.py", """\
def first(step):
    try:
        step()
    except:
        pass


def second(step):
    try:
        step()
    except Exception:
        pass
""")
        findings = lint([path], select=["SL005"])
        assert rules_of(findings) == ["SL005", "SL005"]

    def test_narrow_or_handled_exceptions_are_clean(self, tmp_path):
        path = write(tmp_path, "handlers.py", """\
def first(step, log):
    try:
        step()
    except ValueError:
        pass


def second(step, log):
    try:
        step()
    except Exception as exc:
        log.warning("step failed: %s", exc)
        raise
""")
        assert lint([path], select=["SL005"]) == []


class TestSuppression:
    def test_same_line_suppression(self, tmp_path):
        path = write(tmp_path, "sup.py", """\
def visit(graph):
    pending = {3, 1, 2}
    for node in pending:  # simlint: disable=SL002
        graph.touch(node)
""")
        assert lint([path]) == []

    def test_line_above_suppression(self, tmp_path):
        path = write(tmp_path, "sup.py", """\
def visit(graph):
    pending = {3, 1, 2}
    # simlint: disable=SL002
    for node in pending:
        graph.touch(node)
""")
        assert lint([path]) == []

    def test_unrelated_rule_suppression_does_not_hide(self, tmp_path):
        path = write(tmp_path, "sup.py", """\
def visit(graph):
    pending = {3, 1, 2}
    for node in pending:  # simlint: disable=SL005
        graph.touch(node)
""")
        assert rules_of(lint([path])) == ["SL002"]


class TestCli:
    VIOLATION = """\
def total(lat_cycles, dram_ns):
    return lat_cycles + dram_ns
"""

    def test_exit_codes(self, tmp_path, capsys):
        clean = write(tmp_path, "clean.py", "x = 1\n")
        dirty = write(tmp_path, "dirty.py", self.VIOLATION)
        assert main([clean]) == EXIT_CLEAN
        assert main([dirty]) == EXIT_FINDINGS
        assert main([str(tmp_path / "missing.py")]) == EXIT_ERROR
        assert main(["--select", "SL999", clean]) == EXIT_ERROR
        capsys.readouterr()

    def test_json_report(self, tmp_path, capsys):
        dirty = write(tmp_path, "dirty.py", self.VIOLATION)
        assert main(["--json", dirty]) == EXIT_FINDINGS
        report = json.loads(capsys.readouterr().out)
        assert report["tool"] == "simlint"
        assert report["count"] == 1
        finding = report["findings"][0]
        assert finding["rule"] == "SL004"
        assert finding["line"] == 2
        assert finding["path"].endswith("dirty.py")

    def test_select_filters_rules(self, tmp_path):
        path = write(tmp_path, "multi.py", """\
def total(lat_cycles, dram_ns):
    try:
        return lat_cycles + dram_ns
    except:
        pass
""")
        assert rules_of(lint([path])) == ["SL004", "SL005"]
        assert rules_of(lint([path], select=["SL005"])) == ["SL005"]


class TestRepositoryIsClean:
    def test_src_tree_has_no_findings(self):
        findings = lint([str(REPO_SRC)])
        assert findings == [], "\n".join(f.render() for f in findings)
