"""Name-based registry of the built-in testcases."""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.core.system import ChipletSystem
from repro.testcases import a15, arvr, emr, ga102

#: Registry of named testcase builders (no-argument callables).
TESTCASES: Dict[str, Callable[[], ChipletSystem]] = {
    "ga102-monolithic": ga102.monolithic,
    "ga102-3chiplet": ga102.three_chiplet,
    "ga102-4chiplet": ga102.four_chiplet,
    "a15-monolithic": a15.monolithic,
    "a15-3chiplet": a15.three_chiplet,
    "emr-monolithic": emr.monolithic,
    "emr-2chiplet": emr.two_chiplet,
    "arvr-3d-1k-2mb": lambda: arvr.system("3D-1K-2MB"),
    "arvr-3d-1k-8mb": lambda: arvr.system("3D-1K-8MB"),
    "arvr-3d-2k-16mb": lambda: arvr.system("3D-2K-16MB"),
}


def list_testcases() -> List[str]:
    """Sorted names of the built-in testcases."""
    return sorted(TESTCASES)


def testcase_key(name: str) -> str:
    """The registry key of testcase ``name`` (a lookup; nothing is built).

    Raises:
        KeyError: when ``name`` is unknown; the message lists the valid names.
    """
    key = name.strip().lower()
    if key not in TESTCASES:
        raise KeyError(
            f"unknown testcase {name!r}; known testcases: {list_testcases()}"
        )
    return key


def get_testcase(name: str) -> ChipletSystem:
    """Build the testcase registered under ``name``.

    Raises:
        KeyError: when ``name`` is unknown; the message lists the valid names.
    """
    return TESTCASES[testcase_key(name)]()
