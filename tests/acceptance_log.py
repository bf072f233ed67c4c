"""Acceptance verdict lines collected during the session; conftest replays
them in the terminal summary so they stay visible under output capture."""

from __future__ import annotations

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
