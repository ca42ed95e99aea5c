"""Expansions compared byte for byte against a stored corpus.

Each file under ``tests/golden`` holds the ``to_json()`` output of one
request, followed by a newline.  The test recomputes the expansion and
names the first coordinate where the two differ.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from pss.lattice_core import parse_gram
from pss.series_builder import SeriesRequest, pss_expansion

GOLDEN = Path(__file__).parent / "golden"

# file stem -> (gram, weight or None for the plain series, m, precision,
# beta as a lift or None for beta = 0)
CASES = {
    "zx2_plain_p40": ("[[2]]", None, None, 40, None),
    "trivial_w2_p12": ("", "2", "1", 12, None),
    "split_w2_p1": ("[[2,0],[0,-2]]", "2", "1", 1, None),
    "zx2_w32_p5": ("[[2]]", "3/2", "1", 5, None),
    "nonsquare8_w2_p1": ("[[2,2],[2,-2]]", "2", "1", 1, None),
    # beta of order d = 2, so Jacobi class representatives step r by 2md
    "split_twist_w2_p1": ("[[2,0],[0,-2]]", "2", "3/4", 1, ("1/2", "0")),
}


def render(stem):
    """The corpus text of one case, as the current code computes it."""
    gram, weight, m, precision, beta = CASES[stem]
    request = SeriesRequest(
        parse_gram(gram),
        None if weight is None else Fraction(weight),
        None if m is None else Fraction(m),
        None if beta is None else tuple(Fraction(v) for v in beta),
        precision,
    )
    return pss_expansion(request).to_json() + "\n"


def first_difference(want, got):
    """Where two corpus texts first differ, in terms of the expansion."""
    old, new = json.loads(want), json.loads(got)
    for key in ("gram", "weight", "m", "beta", "precision"):
        if old[key] != new[key]:
            return "%s: %r != %r" % (key, old[key], new[key])
    if len(old["components"]) != len(new["components"]):
        return "%d components != %d" % (
            len(old["components"]), len(new["components"]))
    for a, b in zip(old["components"], new["components"]):
        where = "gamma (%s)" % ", ".join(a["gamma"])
        if a["gamma"] != b["gamma"] or a["offset"] != b["offset"]:
            return "%s: gamma/offset %r != %r" % (
                where, (a["gamma"], a["offset"]), (b["gamma"], b["offset"]))
        for (ea, va), (eb, vb) in zip(a["coefficients"].items(),
                                      b["coefficients"].items()):
            if (ea, va) != (eb, vb):
                return "%s, q^%s: %s != %s" % (where, ea, va, vb)
        if len(a["coefficients"]) != len(b["coefficients"]):
            return "%s: %d coefficients != %d" % (
                where, len(a["coefficients"]), len(b["coefficients"]))
    return "formatting only (the JSON values agree)"


@pytest.mark.parametrize("stem", sorted(CASES))
def test_golden_expansion(stem):
    want = (GOLDEN / (stem + ".json")).read_text(encoding="utf-8")
    got = render(stem)
    if got != want:
        pytest.fail("%s differs from the corpus at %s"
                    % (stem, first_difference(want, got)))
