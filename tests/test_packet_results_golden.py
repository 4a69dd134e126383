"""Packet-engine results against a committed golden, byte for byte.

``tests/data/packet_results.golden.json`` maps each pinned spec's
``content_hash()`` to the sha256 of its canonical ``RunResult`` JSON.
Every spec is executed here uncached.  A mismatch names the spec and
says whether the spec changed (its hash is not in the golden: the
builder, its arguments, the schema or the package version moved) or its
result changed (known hash, new digest).  Regenerate with
``tests/packet_results_golden.py`` only when a change is meant to move
a packet result.
"""

import json

import pytest

from tests.packet_results_golden import result_digest, specs


@pytest.fixture(scope="module")
def golden(test_data_dir):
    return json.loads((test_data_dir / "packet_results.golden.json").read_text())


def _describe(spec) -> str:
    return f"{spec.builder} {spec.protocol} seed={spec.seed} {spec.kwargs}"


def test_packet_results_are_byte_identical(golden):
    problems = []
    seen = set()
    for spec in specs():
        key = spec.content_hash()
        seen.add(key)
        if key not in golden:
            problems.append(f"spec changed: {_describe(spec)} ({key[:12]})")
            continue
        digest = result_digest(spec.execute())
        if digest != golden[key]:
            problems.append(
                f"result changed: {_describe(spec)} "
                f"({golden[key][:12]} -> {digest[:12]})"
            )
    stale = sorted(set(golden) - seen)
    if stale:
        problems.append(f"{len(stale)} golden entries match no spec: {stale}")
    assert not problems, "\n".join(problems)
