"""The benchmark's paths run without sympy: sympy is imported only by
general factoring (untrusted minimal polynomials, square-free splitting
when the float64 disks are not certified, large composite cofactors)."""

import subprocess
import sys
import textwrap

CALLS = textwrap.dedent(
    """
    import sys
    sys.modules["sympy"] = None  # any import of sympy, at import time or later, raises
    from fractions import Fraction

    import smallpoints as sp
    import smallpoints.cli  # noqa: F401

    torus = sp.HeightedSystem("torus", 2)
    a = sp.radical(Fraction(3, 2), 200)
    sp.weil_height(a)
    sp.orbit_measure(a)
    sp.n_function(torus, sp.TorusElement(a), sp.StarParams(r=1, M=0.5, c=1.9))
    sp.orbit_measure(sp.root_of_unity(61, 5))

    curve, point = sp.EllipticCurveQ(0, -2), sp.ECPoint.of(3, 5)
    q = sp.ec_mul(curve, 5, point)
    assert not sp.is_torsion(curve, q)
    sp.canonical_height(curve, q, 1e-9)
    sp.n_function(sp.HeightedSystem("elliptic", 2, curve=curve), q,
                  sp.StarParams(r=1, M=8.0, c=3.9))

    gamma = sp.SubgroupGamma.of([
        sp.SemiabelianPoint(point, (sp.TorusElement.from_rational(3),)),
        sp.SemiabelianPoint(sp.ECPoint.identity(), (sp.TorusElement.from_rational(5),)),
    ])
    relation = sp.CurveRelation.of([{(0, 0, 1): Fraction(1), (0, 0, 0): -Fraction(3)}], 1)
    config = sp.ExploreConfig(gen_bound=1, rou_order=6, radicals=((Fraction(2), 4),))
    report = sp.explore_theorem(sp.AmbientVariety(curve, 1), gamma, relation, 0.3, config)
    assert report["hit_count"] == 1

    assert sp.radical(4, 4).minpoly.coeffs == (-2, 0, 1)
    assert sp.radical(Fraction(-8, 27), 3).as_rational() == Fraction(-2, 3)
    print("ok")
    """
)


# squarefree polynomials whose float64 disks are certified: that pass proves
# them squarefree, so roots() and mahler_log() need no factoring; Phi_59 at
# 1e-12 needs an mpmath rung, which keeps the float64 pass's order
SQUAREFREE = textwrap.dedent(
    """
    import sys
    sys.modules["sympy"] = None
    from smallpoints import algebraic
    from smallpoints.algebraic import IntPolynomial, mahler_log, roots

    lehmer = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
    phi_59 = IntPolynomial(algebraic._cyclotomic(59))
    for p in (lehmer, phi_59, IntPolynomial((-2,) + (0,) * 199 + (1,))):
        assert len(roots(p, 1e-12)) == p.degree
        mahler_log(p, 1e-12)
    assert algebraic._root_table(phi_59, 1e-12).re.dtype == object
    print("ok")
    """
)


def run_without_sympy(calls):
    code = f"import sys; sys.path[:0] = {sys.path!r}\n" + calls
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


def test_benchmark_paths_run_without_sympy():
    run_without_sympy(CALLS)


def test_squarefree_roots_run_without_sympy():
    run_without_sympy(SQUAREFREE)
