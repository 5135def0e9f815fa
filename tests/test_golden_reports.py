"""Byte-for-byte comparison of analysis reports against a committed file.

``golden_reports.txt`` holds ``report_json`` of the eight fixtures and the
three catalog actions at seeds 0 and 3, each after a ``=== <source> seed=<n>``
header line. A change that alters any report fails here. Regenerate the file
only when a report is meant to change, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_reports.py
"""
from pathlib import Path

import pytest

from orbit_isom.catalog import CATALOG
from orbit_isom.fixtures import FIXTURE_NAMES, fixture_document
from orbit_isom.isom_quotient import quotient_isometry_group, report_json

GOLDEN = Path(__file__).with_name("golden_reports.txt")
SEEDS = (0, 3)
SOURCES = tuple(FIXTURE_NAMES) + tuple(f"catalog:{a}" for a in CATALOG)


def _report(source: str, seed: int) -> str:
    doc = source if source.startswith("catalog:") else fixture_document(source)
    return report_json(quotient_isometry_group(doc, seed=seed).report)


def _header(source: str, seed: int) -> str:
    return f"=== {source} seed={seed}\n"


def _golden_blocks() -> dict:
    blocks, key = {}, None
    for line in GOLDEN.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("=== "):
            key = line
            blocks[key] = ""
        else:
            blocks[key] += line
    return blocks


def test_the_golden_file_covers_every_source_and_seed():
    assert list(_golden_blocks()) == [_header(s, n) for s in SOURCES for n in SEEDS]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("source", SOURCES)
def test_report_is_byte_identical_to_the_golden_file(source, seed):
    assert _report(source, seed) == _golden_blocks()[_header(source, seed)]


if __name__ == "__main__":
    GOLDEN.write_text("".join(_header(s, n) + _report(s, n) for s in SOURCES for n in SEEDS),
                      encoding="utf-8")
