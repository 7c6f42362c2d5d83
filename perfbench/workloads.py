"""Seeded query lists for the three benchmark workloads.

A workload is a list of slots.  Each slot is a finite pool of candidate
queries, and one pass over the workload runs one query drawn from every
slot.  The seed picks the candidates and their order; the same seed always
gives the same list.  Because every pool is finite, ``all_queries`` can
enumerate every query any seed can draw, and the goldens cover them all.

The slots fix how many queries of each kind a pass holds, and the
candidates inside a slot cost about the same, so the cost of a pass moves
little from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Query:
    """One CLI invocation; ``valid`` queries must exit 0, the rest exit 2."""

    argv: tuple
    valid: bool = True

    @property
    def key(self):
        return " ".join(self.argv)


def _q(text, valid=True):
    return Query(tuple(text.split()) + ("--format", "json"), valid)


# --- sweep: the three near-primitive routes cross-checked ---------------------
#
# The default bounds (so/40, u/24) dominate; the seed adds one smaller bound
# per model, drawn from bounds of similar cost.

SWEEP = [
    [_q("nearprim verify --model so")],
    [_q("nearprim verify --model u")],
    [_q(f"nearprim verify --model so --max-degree {n}") for n in (20, 24, 28)],
    [_q(f"nearprim verify --model u --max-degree {n}") for n in (12, 14, 16)],
]


# --- odd-mmm: invariance verdicts modulo the K ideal ------------------------
#
# Every pass holds a d = 3 verdict (always yes), one verdict of each outcome
# (yes, notPrimitive, notInNPdImage) at d = 5 or 7, the L-class components
# L_8..L_10 and one odd-d invariant slice.  A verdict's cost is almost all
# K-ideal construction, which depends on d and not on the expression, and
# the L-class components are fixed, so the seed barely moves the cost of a
# pass.

_ODD_YES = {
    3: ["E1_1", "E5_1", "E9_1", "E13_1", "3*E5_1", "E1_1*E5_1", "E1_1*E9_1", "E5_1*E9_1"],
    5: ["E3_1", "E3_2", "E7_1", "E7_2", "E3_1+E3_2", "E7_1-2*E7_2", "E3_1*E3_2", "E7_1*E7_2"],
    7: ["E1_1", "E1_2", "E1_1+E1_2", "E1_1-3*E1_2", "E1_1*E1_2"],
}
_ODD_NOT_PRIMITIVE = {
    5: ["E3_1*E7_1", "E3_1*E7_2", "E3_2*E7_1", "E3_2*E7_2", "E3_1*E11_1", "E3_2*E11_3"],
    7: ["E1_1*E5_1", "E1_2*E5_3", "E1_1*E9_2", "E5_1*E5_2", "E1_2*E13_1", "E5_3*E9_4"],
}
_ODD_NOT_IN_IMAGE = {
    5: ["E11_1", "E11_2", "E11_3", "E11_1+E11_2"],
    7: ["E5_1", "E5_2", "E5_3", "E9_1", "E9_2", "E9_4", "E13_2"],
}


def _odd_tests(table, ds):
    return [_q(f"mmm test --flavor so -d {d} --expr {e}") for d in ds for e in table[d]]


ODD_MMM = [
    _odd_tests(_ODD_YES, (3,)),
    _odd_tests(_ODD_YES, (5, 7)),
    _odd_tests(_ODD_NOT_PRIMITIVE, (5, 7)),
    _odd_tests(_ODD_NOT_IN_IMAGE, (5, 7)),
    [_q("lclass -k 8")],
    [_q("lclass -k 9")],
    [_q("lclass -k 10")],
    # Invariant slices in degrees 4k - d, where a hatted L-class component
    # is a generator, so K meets the linear part and the intersection is real.
    [
        _q(f"mmm space --flavor so -d {d} --degree {n}")
        for d in (3, 5, 7)
        for n in range(5, 16)
        if (n + d) % 4 == 0
    ],
]


# --- point-queries: many short queries over every subcommand ----------------

_EVEN_EXPRS = {
    ("so", 2): ["e1", "e2", "e3", "e4", "e1^2", "e1*e2", "e1^3", "e2-e1^2", "2*e3", "e3+e1*e2"],
    ("so", 4): ["E4_1", "E4_2", "E4_3", "E8_1", "E8_2", "E8_4", "E4_1+E4_2", "E4_1-2*E4_3", "E4_1*E4_2", "E4_1^2"],
    ("so", 6): ["E2_1", "E2_2", "E4_1", "E6_1", "E6_3", "E2_1+E2_2", "E2_1*E2_2", "E2_1^2", "E6_1-E6_2"],
    ("u", 1): ["e1", "e2", "e3", "e1^2", "e1*e2", "e2-e1^2", "3*e3"],
    ("u", 2): ["E2_1", "E2_2", "E4_1", "E4_2", "E4_3", "E2_1+E2_2", "E2_1*E2_2", "E4_1-E4_3"],
    ("u", 3): ["E2_1", "E2_2", "E2_3", "E2_4", "E4_1", "E4_2", "E2_1-E2_4", "E2_1*E2_3"],
}

_TWIST_PAIRS = [(a, b) for a in range(-1, 3) for b in range(-1, 3) if a <= b]


def _custom(base, groups, numbers):
    twist = ",".join(str(t) for g in groups for t in g)
    flag = " --numbers" if numbers else ""
    # "--twist=-1,2": a separate "-1,2" would be read as an option.
    return _q(f"bundle custom --base {base} --twist={twist}{flag}")


POINT_QUERIES = [
    [_q(f"nearprim basis --model so --degree {m} --order {d}") for m in range(4, 41, 4) for d in range(1, m + 1)],
    [_q(f"nearprim basis --model u --degree {m} --order {d}") for m in range(2, 25, 2) for d in range(1, m + 1)],
    [_q(f"npd --model so -d {d} --degree {n}") for d in range(2, 9) for n in range(4, 41, 4)],
    [_q(f"npd --model u -d {d} --degree {n}") for d in range(1, 5) for n in range(2, 25, 2)],
    [_q(f"mmm space --flavor {f} -d {d} --degree {n}") for f, d in _EVEN_EXPRS for n in range(1, 11)],
    [_q(f"mmm space --flavor {f} -d {d} --degree {n}") for f, d in _EVEN_EXPRS for n in range(1, 11)],
    [_q(f"mmm test --flavor {f} -d {d} --expr {e}") for (f, d), es in _EVEN_EXPRS.items() for e in es],
    [_q(f"mmm test --flavor {f} -d {d} --expr {e}") for (f, d), es in _EVEN_EXPRS.items() for e in es],
    [_q(f"lclass -k {k}") for k in range(1, 7)],
    [_q(f"bundle hirzebruch -k {k} --numbers") for k in range(-3, 5)],
    [_custom("cp1", [p], n) for p in _TWIST_PAIRS for n in (False, True)],
    [_custom("cp2", [p], n) for p in _TWIST_PAIRS for n in (False, True)],
    [_custom("cp1xcp1", [(0, 0), p], n) for p in _TWIST_PAIRS for n in (False, True)],
    # Rank-3 bundles are valid input; today the fibre-euler-number check
    # compares against 2 instead of the rank, so these exit 1 and count as
    # failures until that is fixed.
    [_custom("cp1", [(0,), (a,), (b,)], False) for a, b in _TWIST_PAIRS]
    + [_custom("cp2", [(0,), (a,), (b,)], False) for a, b in _TWIST_PAIRS]
    + [_custom("cp1xcp1", [(0, 0), p, (1, 1)], False) for p in _TWIST_PAIRS],
    # A non-positive bound must be refused; today it is silently replaced by
    # the default, so these exit 0 and count as failures until that is fixed.
    [
        _q(f"mmm test --flavor {f} -d {d} --expr {es[0]} --bound 0", valid=False)
        for (f, d), es in _EVEN_EXPRS.items()
    ],
    [
        _q(text, valid=False)
        for text in (
            "nearprim basis --model so --degree 8 --order 12",
            "nearprim basis --model u --degree 130 --order 3",
            "nearprim basis --model su --degree 8 --order 2",
            "npd --model so -d 4 --degree 200",
            "npd --model u -d 0 --degree 8",
            "npd --model so -d 2 --degree 0",
            "lclass -k 0",
            "lclass -k 40",
            "mmm space --flavor so -d 2 --degree 129",
            "mmm space --flavor so -d 0 --degree 4",
        )
    ],
    [
        _q(text, valid=False)
        for text in (
            "mmm test --flavor so -d 2 --expr e3**2",
            "mmm test --flavor so -d 2 --expr x7",
            "mmm test --flavor so -d 4 --expr E4_1+",
            "mmm test --flavor u -d 1 --expr 2/0*e1",
            "mmm test --flavor u -d 2 --expr E2_9",
            "bundle custom --base cp3 --twist 0,1",
            "bundle custom --base cp1 --twist 0,a",
            "bundle custom --base cp1 --twist 3",
            "bundle custom --base cp1xcp1 --twist 0,0,1",
            "bundle hirzebruch",
        )
    ],
]

# Valid queries the program refuses today, with the answer they should get.
# The slice of degree 1 is empty when every MMM generator has even degree,
# but the query exits 2 with "degree bound 3 is below |p1|".
EXPECTED_RESULTS = {
    "mmm space --flavor so -d 2 --degree 1 --format json": {"dimension": 0, "basis": []},
}

WORKLOADS = {"sweep": SWEEP, "odd-mmm": ODD_MMM, "point-queries": POINT_QUERIES}


def draw(workload, seed):
    """The query list of one pass over ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}/{seed}")
    queries = [rng.choice(slot) for slot in WORKLOADS[workload]]
    rng.shuffle(queries)
    return queries


def all_queries():
    """Every query any seed can draw, each once, in a fixed order."""
    seen = {}
    for slots in WORKLOADS.values():
        for slot in slots:
            for query in slot:
                seen.setdefault(query.key, query)
    return list(seen.values())
