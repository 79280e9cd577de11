"""Metamorphic oracles: exact rescaling of the domain, and the harmonic
reflection.

For a power of two lambda, F_lambda(x) = F(x / lambda) on [lambda a, lambda b]
has modulus lambda^2 c whenever F has modulus c on [a, b]: H(lambda x,
lambda y, t) = lambda H(x, y, t) and |(x'-y')/(x'y')|^2 = d^2 / lambda^2.
Both closed-form families are closed under it:

- quadratic: (alpha, beta, K) -> (lambda^2 alpha, lambda^2 beta, K);
- disc: (v, w, K, beta) -> (lambda v, w, K, lambda^2 beta).

Every float operation of a check then scales exactly, so each report of
F_lambda at modulus lambda^2 c has the slack, verdict and sets of F's report
at c, bit for bit, with its witness (x, y) scaled by lambda.  The relation
comes from the statements, not from the code it checks.

One term does not scale: the quadrature budget's floor 16 eps (1 + |I|) on
an integral I carries an absolute 1, and the sandwich ids' integral I
scales by 1/lambda while their factor ab/(b-a) (or 1/d on the Nikodem side)
scales by lambda.  So their budget moves by exactly
16 eps (lambda - 1) ab/(b-a), which the test pins in place of equality.

The harmonic reflection theta(x) = abx/((a+b)x - ab) is u -> 1/a + 1/b - u
in u = 1/x: it swaps a and b, fixes 2ab/(a+b), preserves dx/x^2 and the
penalty's |(x-y)/(xy)|^2.  So F o theta has F's modulus, F's Hermite-Hadamard
sandwiches (the ends swap, the mean and midpoint value stay), and
int F(theta x) G(theta x)/x^2 = int F G/x^2, int F(x) G(theta x)/x^2 =
int G(x) F(theta x)/x^2.  The reflected points are rounded, so the sets
agree within the quadrature budgets rather than bit for bit.
"""

import numpy as np
import pytest
from test_golden import DISC_VERIFY

from harmonichh.aumann import QuadratureSpec, plain_product_integral, reflected_product_integral
from harmonichh.cli import default_config, dumps_machine, parse_config, run
from harmonichh.explorer import run_theorems
from harmonichh.hh_check import THEOREM_IDS, ConvexityGrid
from harmonichh.set_core import hausdorff
from harmonichh.svf import (
    HarmonicDomain,
    SetValuedFn,
    make_disc_family,
    make_quadratic_family,
)

EPS = np.finfo(float).eps
PRODUCT_IDS = ("thm33", "cor34", "thm35", "cor36")
SANDWICH_IDS = ("nikodem_left", "nikodem_right", "hh_left", "hh_right")
SPECS = {
    "gl16": QuadratureSpec(),
    "gl16-x": QuadratureSpec(substitution=False),
    "simpson8": QuadratureSpec("composite-simpson", 8),
}


def quadratic(lam, alpha, beta, K, a, b):
    return make_quadratic_family(lam * lam * alpha, lam * lam * beta, K,
                                 HarmonicDomain(lam * a, lam * b))


def disc(lam, v, w, K, beta, a, b):
    return make_disc_family((lam * v[0], lam * v[1]), w, K, lam * lam * beta,
                            HarmonicDomain(lam * a, lam * b))


# (family maker, parameters, c, ids): c below and above the modulus, so that
# held and failed grid verdicts both occur
CASES = [
    (quadratic, (1.0, 1.5, 10.0, 1.0, 2.0), 0.75, THEOREM_IDS),
    (quadratic, (2.5, 0.75, 16.0, 0.5, 1.75), 1.25, THEOREM_IDS),
    (disc, ((0.5, -0.25), (0.125, 0.375), 4.0, 1.25, 1.0, 2.0), 0.5,
     tuple(t for t in THEOREM_IDS if t not in PRODUCT_IDS)),
    (disc, ((-1.0, 0.75), (0.5, 0.0), 6.0, 0.5, 0.75, 1.5), 1.0,
     tuple(t for t in THEOREM_IDS if t not in PRODUCT_IDS)),
]


def scaled_echo(echo: dict, lam: float) -> dict:
    """``echo`` as F_lambda's report carries it: c by lambda^2, the domain ends
    and the witness pair by lambda."""
    out = dict(echo)
    out["c"] = lam * lam * echo["c"]
    for key in ("a", "b"):
        if key in echo:
            out[key] = lam * echo[key]
    if "witness" in echo:
        w = echo["witness"]
        out["witness"] = {"x": lam * w["x"], "y": lam * w["y"], "t": w["t"]}
    return out


@pytest.mark.parametrize("spec", SPECS, ids=list(SPECS))
@pytest.mark.parametrize("sampling", ["deterministic-stratified", "seeded-random"])
@pytest.mark.parametrize("lam", [2.0, 0.25])
def test_power_of_two_rescaling(lam, sampling, spec):
    grid = ConvexityGrid(pair_count=64, sampling=sampling, seed=7)
    q = SPECS[spec]
    compared = 0
    for make, params, c, ids in CASES:
        base = run_theorems(make(1.0, *params), ids, c, grid, q)
        scaled = run_theorems(make(lam, *params), ids, lam * lam * c, grid, q)
        a, b = params[-2:]
        for rep, rep_l in zip(base, scaled):
            tid = rep.theorem_id
            assert rep_l.theorem_id == tid
            assert (rep_l.lhs, rep_l.rhs) == (rep.lhs, rep.rhs), tid
            if tid.startswith("nikodem"):
                # the ends it echoes may be those of G(u) = F(1/u)'s domain
                # [1/b, 1/a], which scale by 1/lambda
                echo, echo_l = ({k: e[k] for k in e if k not in ("a", "b")}
                                for e in (rep.inputs_echo, rep_l.inputs_echo))
            else:
                echo, echo_l = rep.inputs_echo, rep_l.inputs_echo
            assert echo_l == scaled_echo(echo, lam), tid
            v, v_l = rep.verdict, rep_l.verdict
            assert (v_l.holds, v_l.slack, v_l.witness_direction) == \
                (v.holds, v.slack, v.witness_direction), tid
            if tid in SANDWICH_IDS:
                shift = 16.0 * EPS * (lam - 1.0) * a * b / (b - a)
                assert rep_l.error_budget == pytest.approx(rep.error_budget + shift,
                                                           rel=1e-12, abs=0.0), tid
                assert v_l.tolerance_used - rep_l.error_budget == \
                    pytest.approx(v.tolerance_used - rep.error_budget, rel=1e-12), tid
            else:
                assert rep_l.error_budget == rep.error_budget, tid
                assert v_l == v, tid
            compared += 1
    assert compared == 2 * len(THEOREM_IDS) + 2 * (len(THEOREM_IDS) - len(PRODUCT_IDS))


def scaled_config(doc: dict, lam: float) -> dict:
    """``doc`` with c by lambda^2 and each family as F_lambda."""
    families = []
    for fam in doc["families"]:
        fam = dict(fam, a=lam * fam["a"], b=lam * fam["b"], beta=lam * lam * fam["beta"])
        if fam["family"] == "disc":
            fam["v"] = [lam * x for x in fam["v"]]
        else:
            fam["alpha"] = lam * lam * fam["alpha"]
        families.append(fam)
    return dict(doc, c=lam * lam * doc["c"], families=families)


@pytest.mark.parametrize("lam", [2.0, 0.25])
@pytest.mark.parametrize("doc", [default_config(), DISC_VERIFY], ids=["default", "disc-verify"])
def test_cli_rescaling(doc, lam):
    # the relation through cli.run: the same exit code and summary, and every
    # report entry bit for bit but the sandwich ids' budget and tolerance
    base, code = run(parse_config(doc))
    scaled, code_l = run(parse_config(scaled_config(doc, lam)))
    assert code_l == code and scaled.summary == base.summary
    (fam,) = doc["families"]
    shift = 16.0 * EPS * (lam - 1.0) * fam["a"] * fam["b"] / (fam["b"] - fam["a"])
    assert len(scaled.reports) == len(base.reports)
    for e, e_l in zip(base.reports, scaled.reports):
        tid = e["theorem"]
        if tid in SANDWICH_IDS:
            assert e_l["budget"] == pytest.approx(e["budget"] + shift, rel=1e-12, abs=0.0), tid
            assert e_l["tolerance_used"] - e_l["budget"] == \
                pytest.approx(e["tolerance_used"] - e["budget"], rel=1e-12), tid
            e, e_l = ({k: v for k, v in x.items() if k not in ("budget", "tolerance_used")}
                      for x in (e, e_l))
        assert dumps_machine(e_l) == dumps_machine(e), tid


def test_rescaled_families_share_the_modulus_certificate():
    # the relation's premise: F_lambda's certified modulus is lambda^2 times F's
    for make, params, _, _ in CASES:
        for lam in (2.0, 0.25):
            assert make(lam, *params).claimed_modulus == \
                lam * lam * make(1.0, *params).claimed_modulus


class Reflected(SetValuedFn):
    """F o theta on F's domain."""

    def __init__(self, base):
        self.base, self.domain, self.kind = base, base.domain, base.kind
        self.claimed_modulus = base.claimed_modulus

    @property
    def grid_size(self):
        return self.base.grid_size

    def eval_vector(self, xs, out=None):
        a, b = self.domain.a, self.domain.b
        xs = np.asarray(xs, dtype=float)
        return self.base.eval_vector(a * b * xs / ((a + b) * xs - a * b), out=out)


# makers of certified families on [a, b], two quadratic and one disc; K is the
# feasibility floor plus 2
REFLECTION_FAMILIES = [
    lambda a, b: make_quadratic_family(1.0, 1.5, 2.5 / a ** 2 + 2.0, HarmonicDomain(a, b)),
    lambda a, b: make_quadratic_family(2.5, 0.75, 3.25 / a ** 2 + 2.0, HarmonicDomain(a, b)),
    lambda a, b: make_disc_family((0.5, -0.25), (0.125, 0.375), 1.25 / a ** 2 + 2.0, 1.25,
                                  HarmonicDomain(a, b)),
]
REFLECTION_DOMAINS = [(1.0, 2.0), (0.5, 3.0)]


@pytest.mark.parametrize("spec", SPECS, ids=list(SPECS))
@pytest.mark.parametrize("dom", REFLECTION_DOMAINS, ids=["1-2", "0.5-3"])
def test_harmonic_reflection(dom, spec):
    grid = ConvexityGrid(pair_count=64)
    q = SPECS[spec]
    for make in REFLECTION_FAMILIES:
        f = make(*dom)
        ft = Reflected(f)
        modulus = f.claimed_modulus
        for rep, rep_t in zip(run_theorems(f, SANDWICH_IDS, modulus, grid, q),
                              run_theorems(ft, SANDWICH_IDS, modulus, grid, q)):
            budget = rep.error_budget + rep_t.error_budget
            assert hausdorff(rep.lhs, rep_t.lhs) <= budget, rep.theorem_id
            assert hausdorff(rep.rhs, rep_t.rhs) <= budget, rep.theorem_id
        ids = ("def_shc", "def_mid", "prop_31")
        for c in (modulus, 2.0 * modulus):
            held = [rep.verdict.holds for rep in run_theorems(f, ids, c, grid, q)]
            assert [rep.verdict.holds for rep in run_theorems(ft, ids, c, grid, q)] == held
            # the verdicts compared are not vacuous: held at the modulus, failed above
            assert held == [c == modulus] * len(ids)
    f, g = (make(*dom) for make in REFLECTION_FAMILIES[:2])
    for lhs, rhs in ((plain_product_integral(Reflected(f), Reflected(g), f.domain, q),
                      plain_product_integral(f, g, f.domain, q)),
                     (reflected_product_integral(f, g, f.domain, q),
                      reflected_product_integral(g, f, f.domain, q))):
        assert hausdorff(lhs.value, rhs.value) <= lhs.error_budget + rhs.error_budget
