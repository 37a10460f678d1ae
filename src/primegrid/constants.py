"""Constant tables driving the inductive parameter system.

Every inequality the block construction imposes has the shape

    (structural left-hand side) < (tabulated right-hand side family),

where the right-hand side is a function of the block index m drawn from a
small parametric family c * g^m / (a*m + b).  The *faithful* table reproduces
the literal constants of the construction; with those, block 3 already needs
more than 10^12 primes, so a *demo* table with mild families is provided for
desk-scale experiments.  Every report produced from a ledger is labelled with
the active profile.

Demo-table calibration (all values exact rationals):

* gamma_beta = 2/3 keeps the block-length growth factor near 3 per block, so
  five blocks fit below 10^7.
* gamma = 1/5 for every block keeps the density window bound 1 - gamma = 4/5
  meaningful (the built blocks achieve window ratios near 0.91) while the
  prime sizes forced by the deletion-margin inequality stay in the hundreds.
* The count-growth families (which in the faithful table force each block to
  dwarf everything before it) are relaxed to generous powers of 100 so the
  records stay exact but never bind at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Family:
    """Right-hand-side family  m -> coef * geo**m / (lin_a*m + lin_b)."""

    coef: Fraction
    geo: Fraction = Fraction(1)
    lin_a: int = 0
    lin_b: int = 1

    def value(self, m: int) -> Fraction:
        den = self.lin_a * m + self.lin_b
        if den <= 0:
            raise ValueError(f"family denominator nonpositive at m={m}")
        c, g = self.coef, self.geo
        return Fraction(c.numerator * g.numerator ** m,
                        c.denominator * g.denominator ** m * den)

    def to_json(self) -> dict:
        return {
            "coef": frac_json(self.coef),
            "geo": frac_json(self.geo),
            "lin": [self.lin_a, self.lin_b],
        }

    @staticmethod
    def from_json(obj: dict) -> "Family":
        return Family(
            frac_parse(obj["coef"]),
            frac_parse(obj["geo"]),
            _json_int("each lin entry", obj["lin"][0]),
            _json_int("each lin entry", obj["lin"][1]),
        )


def frac_json(x: Fraction) -> dict:
    x = Fraction(x)
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _json_int(what: str, value) -> int:
    """value, which must be a JSON integer: a bool, float or string is a
    TypeError, not read as one."""
    if type(value) is not int:
        raise TypeError(f"{what} must be a JSON integer, not {value!r}")
    return value


def _frac_int(what: str, value) -> int:
    """A num or den: a JSON integer, or the integer string frac_json writes.
    A float, bool or any other string is a TypeError, not read as one."""
    if type(value) is int:
        return value
    if type(value) is str:
        try:
            if str(int(value)) == value:
                return int(value)
        except ValueError:
            pass
    raise TypeError(f"{what} must be a JSON integer or an integer string, "
                    f"not {value!r}")


def frac_parse(obj) -> Fraction:
    """The {num, den} object frac_json writes; any other value (a float, a
    bool, a bare integer or a string) is a TypeError, not read as one."""
    if not isinstance(obj, dict):
        raise TypeError(f"a fraction must be a {{num, den}} object, not {obj!r}")
    return Fraction(_frac_int("num", obj["num"]), _frac_int("den", obj["den"]))


@dataclass(frozen=True)
class ConstantTable:
    """All tunable constants of the inductive construction.

    ``gamma_main`` is the per-block density-defect bound gamma_m for m > 3;
    ``None`` selects the faithful rule 1 / (2000*(m+1)*count_{m-2}), which ties
    gamma_m to the cumulative element count and is what makes the faithful
    parameters grow so fast.  gamma_small covers m <= 3.
    """

    profile: str
    gamma_beta: Fraction
    gamma_small: Fraction
    gamma_main: Family | None
    k_growth: Family          # factor on count_{m-2} in the K_m selection rule
    k_threshold: Family       # threshold the K_m expression must stay under
    spacing_rhs: Family       # prime-size rule vs count_{m-2}*4K^2(d+1)/min q
    f19_sum: Family           # (sum of counts<=m-2)*count_{m-3}/count_{m-1}
    f19_p: Fraction           # p_m < f19_p * count_{m-1} and < f19_p * beta_{m-1}
    f4c_div: Fraction         # p_m < f4c_div * (beta_{m-1} - beta_{m-2})
    f4c_floor: Fraction       # 1 - gamma_m must exceed this
    f3c: Family               # beta_{m-1} + 2 p_m < f3c(m) * beta_m
    f15a: Family              # count_{m-3}/count_{m-1} * 3 p_m
    d38f1: Family             # (sum counts<=m-2)*count_{m-3}/count_{m-1}
    d63: Family               # count_{m-2} vs d63(m) * (count_{m-1}-count_{m-2})
    e28: Family               # count_{m-2}/count_{m-1}
    f12: Family               # 1e4(m+1)*count_{m-2}*p_m*count_{m-3}/count_{m-1}
    d65: Family               # 2(beta_{m-2}+2p_{m-1})*count_{m-3}/beta_{m-1}
    suppl2: Family            # count_{m-3}*2(beta_{m-2}+1e4 p_m count_{m-2}(m+1))/count_{m-1}
    d67: Family               # 2e4 p_m count_{m-2}(m+1)*count_{m-3}/beta_{m-1}

    def __post_init__(self):
        if not (0 < self.gamma_beta < 1):
            raise ValueError("gamma_beta must lie in (0, 1)")
        if self.gamma_small <= 0:
            raise ValueError("gamma_small must be positive")

    def gamma(self, m: int, nbar_m2: int | None) -> Fraction:
        """Density-defect bound gamma_m for block m."""
        if m <= 3:
            return self.gamma_small
        if self.gamma_main is not None:
            return self.gamma_main.value(m)
        if nbar_m2 is None or nbar_m2 <= 0:
            raise ValueError(f"faithful gamma_{m} needs the count through block {m-2}")
        return Fraction(1, 2000 * (m + 1) * nbar_m2)

    def to_json(self) -> dict:
        out = {"profile": self.profile}
        for name in SCALAR_FIELDS:
            out[name] = frac_json(getattr(self, name))
        out["gamma_main"] = None if self.gamma_main is None else self.gamma_main.to_json()
        for name in _FAMILY_FIELDS:
            out[name] = getattr(self, name).to_json()
        return out

    @staticmethod
    def from_json(obj: dict) -> "ConstantTable":
        kwargs = {"profile": obj["profile"]}
        for name in SCALAR_FIELDS:
            kwargs[name] = frac_parse(obj[name])
        gm = obj.get("gamma_main")
        kwargs["gamma_main"] = None if gm is None else Family.from_json(gm)
        for name in _FAMILY_FIELDS:
            kwargs[name] = Family.from_json(obj[name])
        return ConstantTable(**kwargs)


# the Fraction-valued constants; gamma_main (a Family or None) stands apart
SCALAR_FIELDS = ("gamma_beta", "gamma_small", "f19_p", "f4c_div", "f4c_floor")
_FAMILY_FIELDS = (
    "k_growth", "k_threshold", "spacing_rhs", "f19_sum", "f3c",
    "f15a", "d38f1", "d63", "e28", "f12", "d65", "suppl2", "d67",
)

F = Fraction


def default_constants() -> ConstantTable:
    """The literal constants of the construction (faithful profile)."""
    return ConstantTable(
        profile="faithful",
        gamma_beta=F(1, 1000),
        gamma_small=F(1, 8),
        gamma_main=None,                      # 1/(2000(m+1) count_{m-2})
        k_growth=Family(F(32 * 10**4 * 4), F(4)),     # 32*10^4*4^(m+1)
        k_threshold=Family(F(1, 2), F(1, 2)),         # 2^-(m+1)
        spacing_rhs=Family(F(1, 200), lin_a=1, lin_b=1),   # 1/(200(m+1))
        f19_sum=Family(F(1, 3), lin_a=1),                  # 1/(3m)
        f19_p=F(1, 100),
        f4c_div=F(1, 10**4),
        f4c_floor=F(3, 4),
        f3c=Family(F(1, 2000)),                            # gamma_beta/2
        f15a=Family(F(1, 200), lin_a=1),                   # 1/(200m)
        d38f1=Family(F(1, 100), lin_a=1),                  # 1/(100m)
        d63=Family(F(1, 100), lin_a=1),                    # 1/(100m)
        e28=Family(F(1), lin_a=1),                         # 1/m
        f12=Family(F(1, 1000), lin_a=1),                   # 1/(1000m)
        d65=Family(F(1, 100), lin_a=1),                    # 1/(100m)
        suppl2=Family(F(1, 200), lin_a=1),                 # 1/(200m)
        d67=Family(F(1, 200), lin_a=1),                    # 1/(200m)
    )


def demo_constants() -> ConstantTable:
    """Desk-scale table: same record shapes, mild growth (see module docs)."""
    return ConstantTable(
        profile="demo",
        gamma_beta=F(2, 3),
        gamma_small=F(1, 5),
        gamma_main=Family(F(1, 5)),
        k_growth=Family(F(32), F(1, 100)),
        k_threshold=Family(F(1)),
        spacing_rhs=Family(F(1), F(100)),
        f19_sum=Family(F(1), F(100)),
        f19_p=F(1),
        f4c_div=F(1),
        f4c_floor=F(3, 4),
        f3c=Family(F(1, 3)),                 # gamma_beta/2
        f15a=Family(F(1), F(100)),
        d38f1=Family(F(1), F(100)),
        d63=Family(F(100)),
        e28=Family(F(1)),
        f12=Family(F(1), F(10**4)),
        d65=Family(F(1), F(100)),
        suppl2=Family(F(1), F(10**4)),
        d67=Family(F(1), F(10**4)),
    )


def constants_for(profile: str) -> ConstantTable:
    if profile == "faithful":
        return default_constants()
    if profile == "demo":
        return demo_constants()
    raise ValueError(f"unknown profile {profile!r}")
