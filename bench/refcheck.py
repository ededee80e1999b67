"""Canonical job outputs and the reference comparison rule.

An output is split into an exact skeleton and a list of floats. The skeleton
(rationals, polynomials, booleans, ids, integers and all other text) must be
byte-identical to the reference; it is stored as a SHA-256 digest. Each float
must agree with its reference within 1e-12 * max(1, |ref|).
"""

from __future__ import annotations

import hashlib
import json
import math
import re

REL_TOL = 1e-12

# A float token in text output: has a decimal point or an exponent.
_FLOAT = re.compile(
    r"(?<![\w.])[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?"
    r"|\d+[eE][-+]?\d+|nan|inf)(?![\w.])")
_MARK = "\x00f"


def _strip_json(value, floats):
    if isinstance(value, float):
        floats.append(value)
        return _MARK
    if isinstance(value, dict):
        return {k: _strip_json(v, floats) for k, v in value.items()}
    if isinstance(value, list):
        return [_strip_json(v, floats) for v in value]
    return value


def canonical(text: str | None) -> dict | None:
    """{"sha256": digest of the exact skeleton, "floats": [...]}."""
    if text is None:
        return None
    floats: list[float] = []
    try:
        data = json.loads(text)
    except ValueError:
        data = None
    if isinstance(data, (dict, list)):
        skeleton = "json:" + json.dumps(_strip_json(data, floats))
    else:
        def grab(m):
            floats.append(float(m.group(0)))
            return _MARK
        skeleton = "text:" + _FLOAT.sub(grab, text)
    digest = hashlib.sha256(skeleton.encode()).hexdigest()
    return {"sha256": digest, "floats": floats}


def floats_agree(got: float, ref: float) -> bool:
    if math.isnan(ref) or math.isinf(ref):
        return repr(got) == repr(ref)
    return abs(got - ref) <= REL_TOL * max(1.0, abs(ref))


def differences(got: dict, ref: dict) -> list[str]:
    """Reasons a job result differs from its reference; empty when it agrees.

    Both are job results: {"rc", "raised", "stdout", "out"} with canonical
    outputs.
    """
    reasons = []
    for key in ("rc", "raised"):
        if got.get(key) != ref.get(key):
            reasons.append(f"{key} {got.get(key)!r} != {ref.get(key)!r}")
    for key in ("stdout", "out"):
        g, r = got.get(key), ref.get(key)
        if (g is None) != (r is None):
            reasons.append(f"{key}: present {g is not None} != {r is not None}")
            continue
        if g is None:
            continue
        if g["sha256"] != r["sha256"]:
            reasons.append(f"{key}: exact fields differ")
        elif len(g["floats"]) != len(r["floats"]):
            reasons.append(f"{key}: {len(g['floats'])} floats != {len(r['floats'])}")
        else:
            bad = [i for i, (a, b) in enumerate(zip(g["floats"], r["floats"]))
                   if not floats_agree(a, b)]
            if bad:
                i = bad[0]
                reasons.append(f"{key}: {len(bad)} floats outside tolerance, "
                               f"first #{i}: {g['floats'][i]!r} != {r['floats'][i]!r}")
    return reasons
