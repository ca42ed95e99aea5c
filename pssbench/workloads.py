"""The benchmark's workloads: which expansions each one requests, and why.

A request is one expansion.  Each workload is a closed loop from one client:
the next request is sent when the previous one has returned.  The seed
only permutes the order of the requests inside a round, so every seed does
the same work.  Requests that share entries of the program's in-process
memos keep their order (``shuffle=False``), since reordering them would
move work from one to another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

GRAM_TRIVIAL = ""
GRAM_ZX2 = "[[2]]"
GRAM_SPLIT = "[[2,0],[0,-2]]"
GRAM_NONSQUARE8 = "[[2,2],[2,-2]]"
GRAM_EIGHT = "[[0,0,2],[0,2,0],[2,0,0]]"


@dataclass(frozen=True)
class Request:
    """One expansion.  ``weight`` None asks for the plain Eisenstein series."""

    label: str
    gram: str
    weight: Optional[str]
    m: Optional[str]
    precision: int
    # the independent reference in checks.REFERENCES, if there is one
    reference: Optional[str] = None
    # the name of the exception the request raises every time because of a
    # known fault in the program
    known_fault: Optional[str] = None
    # exponents whose coefficients a known fault in the program makes wrong
    # every time; the request then fails, and any other problem is a fault
    wrong_at: tuple = ()

    def cli_args(self) -> list[str]:
        """Arguments of the equivalent ``pss`` invocation (JSON output)."""
        if self.weight is None:
            args = ["eisenstein", "--gram", self.gram]
        else:
            args = ["compute", "--gram", self.gram, "--weight", self.weight,
                    "--m", self.m]
        return args + ["--prec", str(self.precision), "--format", "json"]


@dataclass(frozen=True)
class Workload:
    name: str
    requests: tuple
    # worker threads behind the public ``mapper`` argument (1: no mapper)
    jobs: int = 1
    # cache-replay only: replays of each request per round
    replays: int = 0
    # False where the requests share memo entries, so that their order
    # would change their cost and the seed would change the work done
    shuffle: bool = True

    def round_order(self, seed: int, round_no: int) -> list:
        """The requests of one round in the order that seed and round give."""
        order = list(self.requests) * max(1, self.replays)
        if self.shuffle:
            random.Random(f"{self.name}/{seed}/{round_no}").shuffle(order)
        return order


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "w32-jacobi",
            (
                Request("eight", GRAM_EIGHT, "3/2", "1", 1, "paper-table"),
                Request("zx2-zero", GRAM_ZX2, "3/2", "1", 8, "zero"),
            ),
            jobs=2,
        ),
        Workload(
            "w2-shadow",
            (
                Request("trivial", GRAM_TRIVIAL, "2", "1", 40, "trivial-sigma"),
                Request("split", GRAM_SPLIT, "2", "1", 4, "split-sigma"),
                Request("nonsquare8", GRAM_NONSQUARE8, "2", "1", 1),
            ),
            shuffle=False,
        ),
        Workload(
            "eisenstein-deep",
            (
                # the deepest precision whose coefficients are all right
                Request("zx2-eis", GRAM_ZX2, None, None, 191, "hurwitz"),
                Request("zx2-eis-p300", GRAM_ZX2, None, None, 300, "hurwitz",
                        wrong_at=(192, 256)),
                Request("zx2-eis-p0", GRAM_ZX2, None, None, 0, "hurwitz",
                        known_fault="KeyError"),
            ),
            shuffle=False,
        ),
        Workload(
            "cache-replay",
            (
                Request("zx2-eis", GRAM_ZX2, None, None, 40, "hurwitz"),
                Request("trivial", GRAM_TRIVIAL, "2", "1", 12, "trivial-sigma"),
                Request("split", GRAM_SPLIT, "2", "1", 1, "split-sigma"),
                Request("zx2-zero", GRAM_ZX2, "3/2", "1", 5, "zero"),
            ),
            replays=3,
        ),
    )
}
