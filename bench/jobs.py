"""Seeded job lists for the four benchmark workloads.

A job is plain data (a dict of JSON values), so the runner can count the
jobs of a list without importing erjw; `worker.py` turns each job into
calls of erjw's public API or of `erjw.cli.main`.  Every input erjw sees
is derived here from the seed, through `random.Random` seeded with a
string, which is stable across interpreter runs.

Job fields:
    op      "cli", "window_check", "k_series", "reduce" or "in_ideal"
    args    the inputs of that op
    expect  what the output check requires beyond success (may be empty)
"""

from __future__ import annotations

import random

WORKLOADS = ("flatness", "fgl", "pages", "classring")
DEFAULT_SEED = 0

# Relation texts whose verdict the coefficient chart fixes; each entry is
# (height, text, holds).  The x-power entries at n=1 follow from x^3 = 0.
RELATIONS = (
    (1, "x^3 = 0", True),
    (1, "x^2 = 0", False),
    (1, "x^4 = 0", True),
    (2, "alpha*alpha_2 = 2*w", True),
    (2, "alpha*alpha_2 = w", False),
    (2, "2*x = 0", True),
    (2, "x*alpha = 0", False),
    (2, "x^7 = 0", True),
    (2, "x^3*alpha = 0", True),
    (2, "x^3 = 0", False),
    (2, "x = x^2", False),
    (2, "alpha*alpha_2*vn^-8 = 2*w*vn^-8", True),
    (3, "vh1*A = 2*B", True),
    (3, "vh2*A = 2*C", True),
    (3, "vh2*B = vh1*C", True),
    (3, "vh1*vh2*A = 2*vh2*B = 2*vh1*C", True),
    (3, "B = C", False),
    (3, "2*x = 0", True),
)


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The job list of one run; the same (workload, seed) gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return _MAKERS[workload](rng)


def _cli(argv, **expect) -> dict:
    return {"op": "cli", "args": [str(a) for a in argv], "expect": expect}


# -- flatness: a few large sparse Smith reductions ---------------------------

# Degree pairs each stage certifies.  16 is the hat-lattice step at n=2 and
# |stage k| = (2^k - 1) * 16, so the window (lo, lo + 16 * (DEGREES - 1) +
# |stage k|) holds exactly DEGREES pairs (D, D + |stage k|) for any lo that
# is a multiple of 16.
_DEGREES = 3
_STAGES = (0, 1, 2)


def _flatness(rng: random.Random) -> list[dict]:
    # The seed shifts each stage's window by a multiple of the lattice step.
    # Every shift keeps D = 0, the dearest degree, so lists of different
    # seeds cost the same to within a few percent.
    jobs = []
    for k in _STAGES:
        width = 16 * (_DEGREES - 1) + (2 ** k - 1) * 16
        lo = 16 * rng.choice((-2, -1, 0))
        jobs.append({"op": "window_check",
                     "args": {"n": 2, "q": 1, "k": k,
                              "window": [lo, lo + width],
                              "weight": 6, "caps": 5},
                     "expect": {"checked": _DEGREES}})
    return jobs


# -- fgl: Fraction-valued graded series multiplication ------------------------


def _fgl(rng: random.Random) -> list[dict]:
    # The seed draws how many terms are printed, which costs next to
    # nothing, and the k of the n=3 k_series from two values that cost the
    # same to within a few percent.  The n=2 k_series keeps k=3: k=4 costs
    # a quarter more, and that job sits at the list's median latency.
    return [
        _cli(["fgl", "--n", 3, "--precision", 20,
              "--terms", rng.choice((4, 6, 8, 12))]),
        _cli(["fgl", "--n", 2, "--terms", rng.choice((4, 6, 8, 12, 16))]),
        {"op": "k_series",
         "args": {"n": 3, "precision": 12, "k": rng.choice((4, 5))},
         "expect": {}},
        {"op": "k_series",
         "args": {"n": 2, "precision": 16, "k": 3},
         "expect": {}},
    ]


# -- pages: many small Smith reductions plus three-engine comparison ----------


def _pages(rng: random.Random) -> list[dict]:
    r3 = rng.choice((1, 2, 3, 4, 7, 8, 15, 16))
    o3 = 16 * rng.choice((-1, 0, 1))
    r2 = rng.choice((1, 2, 3, 4, 7, 8))
    o2 = 16 * rng.choice((-1, 0, 1))
    return [
        _cli(["page", "--n", 3, "--r", r3,
              "--window", f"{-48 + o3}..{48 + o3}", "--caps", 4,
              "--engine", "all"]),
        _cli(["page", "--n", 2, "--r", r2,
              "--window", f"{-96 + o2}..{96 + o2}", "--caps", 6,
              "--engine", "all"]),
    ]


# -- classring: a stream of small class-ring queries ---------------------------

# Every list holds the same query shapes (subcommand or API call, height
# n, rank q, weight bound w) in the same shuffled order; the seed draws
# what each query contains.  Content that moves cost a lot (which degrees
# an ideal element touches) is fixed per shape, and so is the order,
# because a query's time depends on what ran before it (the first query
# of a fresh worker runs cold).  So lists of different seeds cost about
# the same and p95 stays put.
_HEIGHTS = (1, 2, 3)
_RANKS = (1, 2)
_WEIGHTS = (4, 5, 6)
_COEFF_PER_HEIGHT = 12
_ORIENT_PER_HEIGHT = 4
_REDUCE_PER_SHAPE = 4
_MEMBERS_PER_SHAPE = 3  # plus one non-member per in_ideal shape


def _hat_offset(n: int) -> int:
    # GradingSpec.hat_offset; this module stays free of erjw imports
    return 2 ** (n + 1) * (2 ** (n - 1) - 1)


def _scalar(rng: random.Random) -> list[int]:
    num = rng.choice([v for v in range(-9, 10) if v])
    return [num, rng.choice((1, 3, 5, 7))]


def _class_exponents(rng: random.Random, q: int, budget: int) -> list[int]:
    """Class exponents of total weight at most `budget` (c_k has weight k)."""
    e = [0] * q
    for k in rng.sample(range(1, q + 1), q):
        used = sum((j + 1) * x for j, x in enumerate(e))
        e[k - 1] = rng.randint(0, (budget - used) // k)
    return e


def _ring_expr(rng: random.Random, q: int, weight: int) -> str:
    terms = []
    for _ in range(rng.randint(1, 3)):
        e = _class_exponents(rng, q, weight)
        factors = [f"c{k + 1}" if x == 1 else f"c{k + 1}^{x}"
                   for k, x in enumerate(e) if x]
        coeff = rng.choice((1, 2, 3, 4, 6, -1, -2))
        terms.append("*".join([str(coeff)] + factors))
    return " + ".join(terms)


def _reduce_job(rng, n, q, w) -> dict:
    P = _hat_offset(n)
    terms = [{"vh": [rng.randint(0, 2) for _ in range(n - 1)],
              "vn": P * rng.choice((-1, 0, 1)),
              "c": _class_exponents(rng, q, w),
              "coeff": _scalar(rng)}
             for _ in range(rng.randint(1, 3))]
    return {"op": "reduce", "args": {"n": n, "q": q, "weight": w,
                                     "terms": terms}, "expect": {}}


def _in_ideal_job(rng, n, q, w, member: bool) -> dict:
    # the relation multiples r_q * c1 and r_1 * c_q: one fixed pair of
    # degrees per shape, random 2-local coefficients
    one = [1] + [0] * (q - 1)
    top = [0] * (q - 1) + [1]
    multiples = [
        {"vh": [0] * (n - 1), "vn": 0, "c": one, "relation": q,
         "coeff": _scalar(rng)},
        {"vh": [0] * (n - 1), "vn": 0, "c": top, "relation": 1,
         "coeff": _scalar(rng)},
    ]
    # an odd multiple of c1 keeps an element out of the ideal: every
    # ideal element has an even c1 coefficient
    odd = None if member else [rng.choice((1, 3, 5, -1, -3)),
                               rng.choice((1, 3, 5))]
    return {"op": "in_ideal",
            "args": {"n": n, "q": q, "weight": w, "multiples": multiples,
                     "odd_c1": odd},
            "expect": {"member": member}}


def _classring(rng: random.Random) -> list[dict]:
    jobs = []
    for n in _HEIGHTS:
        for q in _RANKS:
            for w in _WEIGHTS:
                jobs.append(_cli(["chern", "--n", n, "--q", q,
                                  "--weight", w]))
                # "--reduce=EXPR": a separate argument starting with
                # "-2*c1" would be read as an option by the parser
                jobs.append(_cli(["bo", "--n", n, "--q", q, "--weight", w,
                                  f"--reduce={_ring_expr(rng, q, w)}"]))
                jobs += [_reduce_job(rng, n, q, w)
                         for _ in range(_REDUCE_PER_SHAPE)]
            for w in _WEIGHTS[:2]:
                jobs += [_in_ideal_job(rng, n, q, w, True)
                         for _ in range(_MEMBERS_PER_SHAPE)]
                jobs.append(_in_ideal_job(rng, n, q, w, False))
        texts = [(text, holds) for h, text, holds in RELATIONS if h == n]
        for _ in range(_COEFF_PER_HEIGHT):
            text, holds = rng.choice(texts)
            jobs.append(_cli(["coeff", "--n", n, "--relation", text],
                             holds=holds))
        jobs += [_cli(["orient", "--n", n])
                 for _ in range(_ORIENT_PER_HEIGHT)]
    random.Random("classring order").shuffle(jobs)
    return jobs


_MAKERS = {
    "flatness": _flatness,
    "fgl": _fgl,
    "pages": _pages,
    "classring": _classring,
}
