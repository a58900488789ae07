"""Correctness gates on one ``verify`` output.

A violation fails the benchmark command; it is never folded into a
metric.  The checks hold for any correct build of the program:

- weak duality against the sampled lower bound, with the slack of
  acceptance criterion 1: objective_bound >= attack - 4 stderr - 1e-9;
- ``verified`` holds exactly when the certified margin is <= 0;
- the summary ``verified`` is the conjunction of the per-problem flags;
- exit code 0 means verified and 1 means not verified;
- every real in the file is finite.
"""

from __future__ import annotations

import math

WEAK_DUALITY_SLACK = 1e-9
ATTACK_STDERRS = 4.0
# what float.hex writes for non-finite reals
NON_FINITE_HEX = {"inf", "-inf", "nan"}


def decode(obj):
    # independent of funclag.jsonio, so a refactor there cannot mask a bad file
    if isinstance(obj, str) and (obj.startswith("0x") or obj.startswith("-0x")
                                 or obj in NON_FINITE_HEX):
        return float.fromhex(obj)
    if isinstance(obj, dict):
        return {key: decode(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [decode(value) for value in obj]
    return obj


def _non_finite(obj, path="$"):
    if isinstance(obj, float) and not math.isfinite(obj):
        yield path
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _non_finite(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _non_finite(value, f"{path}[{i}]")


def check_output(doc: dict, exit_code: int, n_problems: int) -> list[str]:
    """Violations in one decoded-or-raw verify output (empty when correct).

    Hex-float strings are decoded here, so ``doc`` may be the file as
    read with ``json.loads``; the ``inf``, ``-inf`` and ``nan`` that
    ``float.hex`` writes are decoded too and caught by the finiteness check.
    A file without the expected fields is a violation, not a crash.
    """
    doc = decode(doc)
    problems = []
    problems.extend(f"non-finite real at {path}" for path in _non_finite(doc))
    try:
        problems.extend(_check_certificates(doc, exit_code, n_problems))
    except (KeyError, TypeError, AttributeError) as exc:
        problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return problems


def _check_certificates(doc: dict, exit_code: int, n_problems: int) -> list[str]:
    problems = []
    certs = doc["certificates"]
    if len(certs) != n_problems:
        problems.append(f"{len(certs)} certificates for {n_problems} expanded problems")
    flags = []
    for i, cert in enumerate(certs):
        bound = cert["bound"]
        flags.append(cert["verified"])
        if cert["verified"] != (bound <= 0.0):
            problems.append(f"certificate {i}: verified={cert['verified']} with bound {bound!r}")
        meta = cert["metadata"]
        objective = meta["objective_bound"]
        attack = meta.get("attack_value")
        if attack is None:
            problems.append(f"certificate {i}: no attack_value")
            continue
        floor = attack - ATTACK_STDERRS * meta["attack_stderr"] - WEAK_DUALITY_SLACK
        if not objective >= floor:
            problems.append(
                f"certificate {i}: objective_bound {objective!r} below attack floor {floor!r}"
            )
    if doc.get("verified") != all(flags):
        problems.append(f"summary verified={doc.get('verified')} but per-problem flags {flags}")
    expected_code = 0 if doc.get("verified") else 1
    if exit_code != expected_code:
        problems.append(f"exit code {exit_code} with summary verified={doc.get('verified')}")
    return problems
