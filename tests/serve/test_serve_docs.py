"""docs/SERVE.md documents every wire op the server declares and every
refusal code the wire transcript drives."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.serve import ServeServer

from .test_wire_transcript import REFUSAL_CODES, TRANSCRIPT

DOC = (Path(__file__).resolve().parents[2] / "docs" / "SERVE.md").read_text()

#: The ops the transcript sends (framing probes and the unknown op aside).
OPS = sorted(
    {op for op, _ in TRANSCRIPT if not op.startswith("<")} - {"no-such-op"}
)


def test_the_transcript_sends_every_declared_op():
    assert OPS == sorted(ServeServer._OPS)


@pytest.mark.parametrize("op", OPS)
def test_op_is_in_the_op_table(op):
    assert f"| `{op}`" in DOC


@pytest.mark.parametrize("code", sorted(REFUSAL_CODES))
def test_refusal_code_is_in_the_error_table(code):
    assert f"| `{code}`" in DOC
