"""Closed-form ledger of the iteration's exponents and constants.

Everything the estimate makes explicit is computed here from (N, q,
beta0, alpha): the ladder ratio chi, the limit exponents alpha0 and r,
the final exponent alpha0*r/alpha + 1/alpha, the geometric sums
S0 = chi/(chi-1) and S1 = chi/(chi-1)^2 that the i -> infinity limit
rests on, and the iteration prefactor exponent 2(N+1)/((1+beta0)(N+2))
applied to each sum.  The remaining multiplicative constant is never a
single number in the analysis (it hides absorption choices), so the
ledger records lambda, |Omega|, T and c_s as symbolic inputs and does
not invent a value for it.
"""

from dataclasses import dataclass

from parabolab.errors import DomainError
from parabolab.moser import chi, exponents


@dataclass(frozen=True)
class ConstantsLedger:
    # inputs
    N: int
    q: float
    beta0: float
    alpha: float
    lam: float
    measure: float   # |Omega|, None when symbolic
    T: float         # None when symbolic
    c_s: float       # embedding constant, None when symbolic
    # derived
    chi: float
    alpha0: float
    r: float
    final_exponent: float
    S0: float
    S1: float
    prefactor_exponent: float  # 2(N+1)/((1+beta0)(N+2))
    prefactor_S0: float
    prefactor_S1: float


def build_ledger(N: int, q: float, beta0: float = 1.0, alpha: float = 1.0,
                 lam: float = 1.0, measure: float = None, T: float = None,
                 c_s: float = None) -> ConstantsLedger:
    """Populate every closed-form quantity; symbolic inputs stay None."""
    if not lam > 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    if c_s is not None and not c_s > 0.0:
        raise DomainError(f"c_s must be positive, got {c_s}")
    c = chi(N, q)
    alpha0, r, final = exponents(beta0, q, N, alpha)
    s0 = c / (c - 1.0)
    s1 = c / (c - 1.0) ** 2
    pre = 2.0 * (N + 1.0) / ((1.0 + beta0) * (N + 2.0))
    return ConstantsLedger(N, q, beta0, alpha, lam, measure, T, c_s,
                           c, alpha0, r, final, s0, s1, pre, pre * s0, pre * s1)


def ledger_to_text(ledger: ConstantsLedger) -> str:
    def fmt(v):
        return "symbolic" if v is None else f"{v:.12g}"
    lines = [
        "inputs",
        f"  N            = {ledger.N}",
        f"  q            = {fmt(ledger.q)}",
        f"  beta0        = {fmt(ledger.beta0)}",
        f"  alpha        = {fmt(ledger.alpha)}",
        f"  lambda       = {fmt(ledger.lam)}",
        f"  measure      = {fmt(ledger.measure)}",
        f"  T            = {fmt(ledger.T)}",
        f"  c_s          = {fmt(ledger.c_s)}",
        "derived",
        f"  chi          = {fmt(ledger.chi)}",
        f"  alpha0       = {fmt(ledger.alpha0)}",
        f"  r            = {fmt(ledger.r)}",
        f"  final        = {fmt(ledger.final_exponent)}",
        f"  S0           = {fmt(ledger.S0)}",
        f"  S1           = {fmt(ledger.S1)}",
        f"  prefactor    = {fmt(ledger.prefactor_exponent)}",
        f"  prefactor*S0 = {fmt(ledger.prefactor_S0)}",
        f"  prefactor*S1 = {fmt(ledger.prefactor_S1)}",
    ]
    return "\n".join(lines) + "\n"
