"""Committed golden reports: every command of tests/golden/regen.py prints
byte for byte the report committed beside it, with the same exit code."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def _regen():
    spec = importlib.util.spec_from_file_location("golden_regen",
                                                  GOLDEN / "regen.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


REGEN = _regen()


def test_the_matrix_is_not_empty():
    assert len(REGEN.commands()) == 19


@pytest.mark.parametrize("name, argv", REGEN.commands(),
                         ids=[name for name, _ in REGEN.commands()])
def test_report_matches_golden(name, argv):
    version, code, report = REGEN.read(GOLDEN / name)
    if version != np.__version__:
        pytest.skip(f"{name} was made with numpy {version}, this is numpy "
                    f"{np.__version__}: its roundoff rows need not match")
    assert REGEN.run(argv) == (code, report)
