"""Inductive parameter system for the sparse sequence construction.

A ledger holds one row per block m: the primes q_{j,m}, the deletion distance
d_m and the density-defect bound gamma_m, together with the block endpoints
beta_{m-1} < beta_m and the element count of each finished block.  The prime
count K_m, the product p_m (the block period) and Q(m) = sum 1/q_{j,m} are
derived from the primes, and the cumulative counts nbar from the block counts;
a ledger file states all four again, and reading one checks them.

The induction follows the construction's ordering exactly: the parameters of
block m are chosen first (K_m from the count through block m-2, then the
primes), and only then is beta_{m-1} fixed as the smallest admissible multiple
of p_m, which finishes block m-1 and determines its element count.  The last
appended block therefore always has an open right endpoint; it is closed by
the next extension.

The records of block m fall in two parts.  The *open* records read neither
beta_m nor the block's count, so they are fixed once the block is appended:
everything from d20f1 to d67 (base_K to gamma_small for block 1).  The
*closing* records read beta_m and exist only once the block is closed: f3c,
and for block 1 also beta1_floor.  A ledger is immutable, so it evaluates the
open records of each block at most once and keeps them; `extend_ledger`
hands the open records of blocks 1..m-1 on to each candidate ledger, so per
candidate endpoint it evaluates only block m-1's closing records and block
m's open records, and the ledger it returns already holds the open records of
every block.  A ledger built by hand or read from a file holds none yet and
evaluates each block's open records when first asked.

All record evaluation is exact rational arithmetic; no floats enter this
module.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, takewhile

from .blocksets import block_count
from .constants import ConstantTable, _json_int, constants_for, frac_json, frac_parse
from .primes import consecutive_primes, next_prime

F = Fraction


class LedgerError(Exception):
    pass


class MissingBlock(LedgerError):
    pass


class MissingCount(LedgerError):
    pass


class InfeasibleAtScale(LedgerError):
    """An admissible parameter would exceed its resource cap: `required` is
    the smallest admissible value, or a lower bound on it."""

    def __init__(self, m: int, what: str, required, cap):
        self.m = m
        self.what = what
        self.required = required
        self.cap = cap
        super().__init__(
            f"block {m}: admissible {what} is at least {required}, cap {cap}"
        )


class NoPrimeWindow(LedgerError):
    pass


# resource caps on the prime count, the primes and the block endpoints
MAX_K = 10**6
MAX_PRIME = 2**62
MAX_BETA = 2**62


def default_d(m: int) -> int:
    """Deletion distance for block m (d_m = m)."""
    return m


@dataclass(frozen=True)
class BlockParams:
    """What the construction chooses for block m; K, p and Q follow from the
    primes."""

    m: int
    beta_prev: int
    primes: tuple[int, ...]
    d: int
    gamma: Fraction
    beta: int | None = None
    count: int | None = None

    @property
    def K(self) -> int:
        return len(self.primes)

    @cached_property
    def p(self) -> int:
        """The block period, the product of the primes."""
        return math.prod(self.primes)

    @cached_property
    def Q(self) -> Fraction:
        """The exact reciprocal sum of the primes."""
        return sum(F(1, q) for q in self.primes)


@dataclass(frozen=True)
class ConstraintRecord:
    name: str
    lhs: Fraction
    rhs: Fraction
    op: str          # one of "<", ">", "=="
    satisfied: bool


@dataclass(frozen=True)
class ConstraintReport:
    m: int
    records: tuple[ConstraintRecord, ...]

    @property
    def overall(self) -> bool:
        return all(r.satisfied for r in self.records)

    def failing(self) -> list[ConstraintRecord]:
        return [r for r in self.records if not r.satisfied]


@dataclass(frozen=True)
class Ledger:
    constants: ConstantTable
    blocks: tuple[BlockParams, ...]

    @cached_property
    def nbar(self) -> tuple[int, ...]:
        """nbar[i] = count of elements below beta_i, i = 0..H: the running
        sum of the counts of the closed blocks."""
        counts = takewhile(lambda c: c is not None,
                           (b.count for b in self.blocks))
        return (0, *accumulate(counts))

    @property
    def complete_horizon(self) -> int:
        """Number of blocks whose right endpoint is fixed."""
        return len(self.nbar) - 1

    def block(self, m: int) -> BlockParams:
        if not 1 <= m <= len(self.blocks):
            raise MissingBlock(f"block {m} not present (have {len(self.blocks)})")
        return self.blocks[m - 1]

    def nb(self, i: int) -> int:
        """Cumulative count through block i (0 for i <= 0)."""
        if i <= 0:
            return 0
        if i >= len(self.nbar):
            raise MissingCount(f"count through block {i} not yet determined")
        return self.nbar[i]

    @cached_property
    def _open(self) -> dict[int, tuple[ConstraintRecord, ...]]:
        """The open records of each block evaluated so far, by m."""
        return {}

    def open_records(self, m: int) -> tuple[ConstraintRecord, ...]:
        """The records of block m that do not read beta_m, evaluated once."""
        recs = self._open.get(m)
        if recs is None:
            recs = self._open[m] = _open_records(self, m)
        return recs


def new_ledger(constants: ConstantTable) -> Ledger:
    """Base ledger: block 1 uses the single modulus 1 (every integer)."""
    b1 = BlockParams(m=1, beta_prev=0, primes=(1,), d=default_d(1),
                     gamma=constants.gamma_small)
    return Ledger(constants=constants, blocks=(b1,))


_OPS = {"<": operator.lt, ">": operator.gt, "==": operator.eq}


def _check(name, lhs, rhs, op) -> ConstraintRecord:
    """The record lhs op rhs, both sides held as Fractions; only the
    comparison `op` names is made."""
    # a type test: isinstance against Fraction is an ABC check, slow enough
    # to show in a ledger build
    if type(lhs) is not F:
        lhs = F(lhs)
    if type(rhs) is not F:
        rhs = F(rhs)
    return ConstraintRecord(name, lhs, rhs, op, _OPS[op](lhs, rhs))


# Records of block m that compare against the count through block m-1.  Their
# right sides grow with that count, so a later beta_{m-1} can mend them.
_COUNT_RECORDS = frozenset({"f19_p_count", "f19_sum", "d38f1", "f15a", "d63",
                            "e28", "f12", "suppl2"})


def check_constraints(ledger: Ledger, m: int) -> ConstraintReport:
    """Evaluate every named inequality the construction imposes on block m:
    its open records, then its closing records.

    The closing records reference the right endpoint beta_m, so they are
    omitted while block m is open (they are imposed when the endpoint is
    chosen).
    """
    return ConstraintReport(m, ledger.open_records(m)
                            + _closing_records(ledger, m))


def _closing_records(ledger: Ledger, m: int) -> tuple[ConstraintRecord, ...]:
    """The records of block m that read beta_m; none while it is open."""
    blk = ledger.block(m)
    if blk.beta is None:
        return ()
    f3c = _check("f3c", blk.beta_prev + 2 * blk.p,
                 ledger.constants.f3c.value(m) * blk.beta, "<")
    if m == 1:
        return _check("beta1_floor", blk.beta, 10, ">"), f3c
    return (f3c,)


def _open_records(ledger: Ledger, m: int) -> tuple[ConstraintRecord, ...]:
    """The records of block m that read neither beta_m nor its count."""
    blk = ledger.block(m)
    tab = ledger.constants

    if m == 1:
        return (
            _check("base_K", blk.K, 1, "=="),
            _check("base_q", blk.primes[0], 1, "=="),
            _check("base_p", blk.p, 1, "=="),
            _check("base_Q", blk.Q, 1, "=="),
            _check("gamma_small", blk.gamma, tab.gamma_small, "=="),
        )

    prev = ledger.block(m - 1)
    if prev.beta is None or prev.beta != blk.beta_prev:
        raise MissingBlock(f"block {m-1} not finished before block {m}")
    nb = ledger.nb
    K, d, p, qmin = blk.K, blk.d, blk.p, min(blk.primes)
    recs: list[ConstraintRecord] = []

    # the largest ratio of two of the (positive) primes
    recs.append(_check("d20f1", F(max(blk.primes), qmin), 2, "<"))
    recs.append(_check("d_lt_q", d, qmin, "<"))
    recs.append(_check("pmbbb", blk.beta_prev % p, 0, "=="))
    recs.append(_check("p_monotone", prev.p, p, "<"))
    recs.append(_check("Q_monotone", blk.Q, prev.Q, "<"))

    recs.append(_check(
        "f13", tab.k_growth.value(m) * nb(m - 2) / K,
        tab.k_threshold.value(m), "<",
    ))
    recs.append(_check(
        "f15", F(nb(m - 2) * 4 * K * K * (d + 1), qmin),
        tab.spacing_rhs.value(m), "<",
    ))
    # the deletion margin per period
    recs.append(_check("5aa", blk.gamma, F(2 * K * (d + 1), qmin), ">"))
    recs.append(_check("f4c_gamma", 1 - blk.gamma, tab.f4c_floor, ">"))
    recs.append(_check(
        "f4c_p", p, tab.f4c_div * (blk.beta_prev - prev.beta_prev), "<",
    ))
    if m > 3:
        if tab.gamma_main is None:
            recs.append(_check("f18", blk.gamma,
                               F(1, 2000 * m * nb(m - 3)), "<"))
        else:
            recs.append(_check("f18", blk.gamma, 1, "<"))
    else:
        recs.append(_check("gamma_small", blk.gamma, tab.gamma_small, "=="))

    nbar_m1 = nb(m - 1)
    sum_counts = sum(nb(i) for i in range(1, m - 1))
    recs.append(_check("f19_sum", sum_counts * nb(m - 3),
                       tab.f19_sum.value(m) * nbar_m1, "<"))
    recs.append(_check("f19_p_count", p, tab.f19_p * nbar_m1, "<"))
    recs.append(_check("f19_p_beta", p, tab.f19_p * blk.beta_prev, "<"))
    recs.append(_check("d38f1", sum_counts * nb(m - 3),
                       tab.d38f1.value(m) * nbar_m1, "<"))
    recs.append(_check("f15a", nb(m - 3) * 3 * p,
                       tab.f15a.value(m) * nbar_m1, "<"))
    recs.append(_check("d63", nb(m - 2),
                       tab.d63.value(m) * (nbar_m1 - nb(m - 2)), "<"))
    recs.append(_check("e28", nb(m - 2), tab.e28.value(m) * nbar_m1, "<"))
    recs.append(_check("f12", 10**4 * (m + 1) * nb(m - 2) * p * nb(m - 3),
                       tab.f12.value(m) * nbar_m1, "<"))
    recs.append(_check("d65", 2 * (prev.beta_prev + 2 * prev.p) * nb(m - 3),
                       tab.d65.value(m) * blk.beta_prev, "<"))
    recs.append(_check(
        "suppl2",
        nb(m - 3) * 2 * (prev.beta_prev + 10**4 * p * nb(m - 2) * (m + 1)),
        tab.suppl2.value(m) * nbar_m1, "<",
    ))
    recs.append(_check("d67", 2 * 10**4 * p * nb(m - 2) * (m + 1) * nb(m - 3),
                       tab.d67.value(m) * blk.beta_prev, "<"))
    return tuple(recs)


def _choose_k(ledger: Ledger, m: int) -> int:
    """Smallest K admissible for block m; at least 2 so deletion is active."""
    tab = ledger.constants
    bound = tab.k_growth.value(m) * ledger.nb(m - 2) / tab.k_threshold.value(m)
    k_min = bound.numerator // bound.denominator + 1
    k = max(2, k_min)
    if k > MAX_K:
        raise InfeasibleAtScale(m, "K", k_min, MAX_K)
    return k


def _choose_primes(ledger: Ledger, m: int, K: int, d: int,
                   gamma: Fraction) -> tuple[int, ...]:
    """K consecutive primes, smallest admissible, spanning less than a factor 2.

    The least prime must clear the deletion-margin bound (so the per-period
    lower density estimate holds with the block's gamma) and the prime-size
    rule against the count through block m-2; consecutive primes with
    q_max < 2*q_min realize the comparable-size requirement structurally.
    """
    tab = ledger.constants
    prev = ledger.block(m - 1)
    bound = F(2 * K * (d + 1)) / gamma
    nb2 = ledger.nb(m - 2)
    if nb2 > 0:
        bound = max(bound, F(nb2 * 4 * K * K * (d + 1)) / tab.spacing_rhs.value(m))
    bound = max(bound, F(d))
    q1 = next_prime(bound.numerator // bound.denominator)
    while q1 <= MAX_PRIME:
        # p_m >= q1^K >= 2^(K (bits of q1 - 1)), and p_m <= beta_{m-1} <=
        # MAX_BETA = 2^62; a larger q1 only raises the bound
        log2_p = K * (q1.bit_length() - 1)
        if log2_p > MAX_BETA.bit_length() - 1:
            raise InfeasibleAtScale(m, "log2(p_m)", log2_p,
                                    MAX_BETA.bit_length() - 1)
        ps = consecutive_primes(q1, K)
        Q = sum(F(1, q) for q in ps)
        if ps[-1] < 2 * q1 and math.prod(ps) > prev.p and Q < prev.Q:
            return tuple(ps)
        q1 = next_prime(q1)
    raise NoPrimeWindow(f"block {m}: no admissible window of {K} primes below {MAX_PRIME}")


def extend_ledger(ledger: Ledger) -> Ledger:
    """Append block m = len(blocks)+1 and close block m-1.

    Chooses d_m = m, the minimal admissible K_m and prime window, then the
    smallest multiple of p_m for beta_{m-1} above the solved lower bounds
    that leaves blocks m-1 and m with no failing record.  The open records
    of blocks 1..m-1 do not depend on the candidate: they are evaluated at
    most once per call (not at all when `ledger` came from an extension)
    and handed on to every candidate, which evaluates only block m-1's
    closing records and block m's open records.  A candidate that
    fails only count records of block m moves on to the next multiple; any
    other failing record raises LedgerError.  Raises InfeasibleAtScale /
    NoPrimeWindow when a MAX_* cap is exceeded (with the faithful table this
    is the expected outcome at m = 3).
    """
    m = len(ledger.blocks) + 1
    if ledger.block(m - 1).beta is not None:
        raise LedgerError("last block already closed; ledger corrupt")
    tab = ledger.constants
    d = default_d(m)
    gamma = tab.gamma(m, ledger.nb(m - 2))
    K = _choose_k(ledger, m)
    primes = _choose_primes(ledger, m, K, d, gamma)
    p = math.prod(primes)

    prev = ledger.block(m - 1)
    beta_pp = prev.beta_prev               # beta_{m-2}
    lower = [
        F(beta_pp),
        F(beta_pp + 2 * prev.p) / tab.f3c.value(m - 1),
        F(beta_pp) + F(p) / tab.f4c_div,
        F(p) / tab.f19_p,
        2 * (beta_pp + 2 * prev.p) * F(ledger.nb(m - 3)) / tab.d65.value(m),
        2 * 10**4 * p * ledger.nb(m - 2) * (m + 1) * F(ledger.nb(m - 3))
        / tab.d67.value(m),
    ]
    if m == 2:
        lower.append(F(10))
    lb = max(lower)
    cand = p * (lb.numerator // lb.denominator // p + 1)
    while cand <= lb:
        cand += p

    while True:
        if cand > MAX_BETA:
            raise InfeasibleAtScale(m, "beta_{m-1}", cand, MAX_BETA)
        count = block_count(prev.primes, prev.d, beta_pp, cand)
        closed_prev = replace(prev, beta=cand, count=count)
        new_block = BlockParams(m=m, beta_prev=cand, primes=primes, d=d,
                                gamma=gamma)
        out = Ledger(constants=tab, blocks=ledger.blocks[: m - 2]
                     + (closed_prev, new_block))
        # no open record of blocks 1..m-1 reads beta_{m-1} or block m-1's
        # count, so the input ledger's hold for every candidate
        ledger.open_records(m - 1)
        out._open.update(ledger._open)
        reports = [check_constraints(out, mm) for mm in (m - 1, m)]
        for rep in reports:
            bad = [r.name for r in rep.failing()]
            if bad and not (rep.m == m and _COUNT_RECORDS.issuperset(bad)):
                raise LedgerError(f"extension left block {rep.m} with failing "
                                  f"records: {', '.join(bad)}")
        if all(rep.overall for rep in reports):
            return out
        cand += p


def extend_to(ledger: Ledger, horizon: int) -> Ledger:
    """Extend until `horizon` blocks have parameters chosen."""
    while len(ledger.blocks) < horizon:
        ledger = extend_ledger(ledger)
    return ledger


def build_ledger(profile: str, horizon: int) -> Ledger:
    return extend_to(new_ledger(constants_for(profile)), horizon)


def structural_report(ledger: Ledger) -> ConstraintReport:
    """Cross-block invariants: monotonicity of p, Q, d and the count prefix."""
    recs = []
    blocks = ledger.blocks
    recs.append(_check("beta0_zero", blocks[0].beta_prev, 0, "=="))
    for a, b in zip(blocks, blocks[1:]):
        recs.append(_check(f"p_up_{b.m}", a.p, b.p, "<"))
        recs.append(_check(f"Q_down_{b.m}", b.Q, a.Q, "<"))
        recs.append(_check(f"d_up_{b.m}", a.d, b.d + 1, "<"))
    for a, b in zip(blocks, blocks[2:]):
        # d grows within every 2 blocks
        recs.append(_check(f"d_strict_{b.m}", a.d, b.d, "<"))
    for i in range(1, len(ledger.nbar)):
        recs.append(_check(f"nbar_up_{i}", ledger.nbar[i - 1], ledger.nbar[i] + 1,
                           "<"))
    return ConstraintReport(0, tuple(recs))


def full_report(ledger: Ledger) -> list[ConstraintReport]:
    """Structural report plus the per-block record set for every block."""
    out = [structural_report(ledger)]
    for m in range(1, len(ledger.blocks) + 1):
        out.append(check_constraints(ledger, m))
    return out


# ---------------------------------------------------------------------------
# serialization

def ledger_to_json(ledger: Ledger) -> dict:
    return {
        "constants": ledger.constants.to_json(),
        "blocks": [
            {
                "m": b.m,
                "beta_prev": b.beta_prev,
                "beta": b.beta,
                "K": b.K,
                "primes": list(b.primes),
                "p": b.p,
                "Q": frac_json(b.Q),
                "d": b.d,
                "gamma": frac_json(b.gamma),
                "count": b.count,
            }
            for b in ledger.blocks
        ],
        "nbar": list(ledger.nbar),
    }


def _parsed(what: str, parse, *args):
    """parse(*args), with a missing key or entry or a value of the wrong type
    reported as a ValueError that names `what`."""
    try:
        return parse(*args)
    except (LookupError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ValueError(f"{what} is malformed ({type(exc).__name__}: {exc})") \
            from exc


def _block_from_json(b: dict, row: int) -> BlockParams:
    """Ledger row `row`.  An integer field that is not a JSON integer is a
    TypeError; a stated K, p or Q that the primes do not give is a ValueError
    naming the row."""
    def integer(key):
        return _json_int(key, b[key])

    def integer_or_null(key):
        return None if b[key] is None else integer(key)

    blk = BlockParams(
        m=integer("m"),
        beta_prev=integer("beta_prev"),
        beta=integer_or_null("beta"),
        primes=tuple(_json_int("each prime", q) for q in b["primes"]),
        d=integer("d"),
        gamma=frac_parse(b["gamma"]),
        count=integer_or_null("count"),
    )
    for key, stated in (("K", integer("K")), ("p", integer("p")),
                        ("Q", frac_parse(b["Q"]))):
        derived = getattr(blk, key)
        if stated != derived:
            raise ValueError(f"ledger row {row} has {key} = {stated}, but its "
                             f"primes give {derived}")
    return blk


def ledger_from_json(obj: dict) -> Ledger:
    """Parse a ledger; ValueError unless it has the ledger's shape, each row
    states the K, p and Q of its primes, and the rows chain into one
    construction: numbered 1..H, each starting at the previous beta, beta and
    count set together, only the last row open, and nbar the running sum of
    the counts.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a ledger is a JSON object, not {type(obj).__name__}")
    missing = [key for key in ("constants", "blocks", "nbar") if key not in obj]
    if missing:
        raise ValueError(f"ledger has no {', '.join(missing)}")
    for key in ("blocks", "nbar"):
        if not isinstance(obj[key], list):
            raise ValueError(f"ledger {key} must be a JSON list, not "
                             f"{type(obj[key]).__name__}")
    tab = _parsed("ledger constants", ConstantTable.from_json, obj["constants"])
    blocks = tuple(_parsed(f"ledger row {i}", _block_from_json, b, i)
                   for i, b in enumerate(obj["blocks"], start=1))
    for i, b in enumerate(blocks, start=1):
        if b.m != i:
            raise ValueError(f"ledger row {i} is numbered {b.m}")
        if i > 1 and b.beta_prev != blocks[i - 2].beta:
            raise ValueError(f"block {i} starts at {b.beta_prev}, not at "
                             f"beta_{i - 1} = {blocks[i - 2].beta}")
        if (b.beta is None) != (b.count is None):
            raise ValueError(f"block {i} sets only one of beta and count")
        if b.beta is None and i < len(blocks):
            raise ValueError(f"block {i} is open but is not the last block")
    ledger = Ledger(constants=tab, blocks=blocks)
    nbar = _parsed("ledger nbar",
                   lambda v: tuple(_json_int("each entry", n) for n in v),
                   obj["nbar"])
    if nbar != ledger.nbar:
        raise ValueError("nbar is not the running sum of the block counts")
    return ledger


def save_ledger(ledger: Ledger, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ledger_to_json(ledger), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_ledger(path) -> Ledger:
    with open(path, encoding="utf-8") as fh:
        return ledger_from_json(json.load(fh))
