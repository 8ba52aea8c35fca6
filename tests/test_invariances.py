"""The theorem's symmetries as checks: how each estimate and functional moves under a change
of units, of the symbol b, or by the reflection R x = -x.

For t, s > 0 and the reflection R (which maps the symmetric window and its dyadic
cubes, and the 1/3- and 2/3-shifted lattices, onto themselves):

- ||U|| from L^p(t mu) to L^q(s lambda) is t^(-1/p) s^(1/q) ||U||;
- Pi_{2b} = 2 Pi_b and [2b, H] = 2 [b, H]; Pi_{b+3} = Pi_b and [b + 3, H] = [b, H];
- b -> b o R, with R-symmetric weights, leaves ||Pi_b||, ||[b, H]|| and phi(b) alone;
- nu^(1/p + 1/q') = mu^(1/p) lambda^(-1/q), so t mu and s lambda give c nu with
  c = t^(1/(p e)) s^(-1/(q e)), e = 1/p + 1/q'.  phi = ||M#_nu b||_{L^r(nu)} then
  takes c^(1/r - 1), the oscillation norm c^(-(1 + alpha/d)), and every A_p
  characteristic none.

t and s are powers of two whose roots t^(1/p), s^(1/q) and c are powers of two too, so
the scaled masses are exact and each law holds to 1e-12 relative.  A scaled weight
carries no exponent, so the unit laws on phi, the oscillation norm and A_p run through
`BloomTriple` on cellwise copies of the power weights (masses as given, duals from the
midpoint densities).  The estimator takes a small effort: every structured start, a
few iterations.
"""

import numpy as np
import pytest

from dyadlab.lattice import DyadicTree, GridFunction
from dyadlab.norms import bmo_alpha_norm, empirical_operator_norm, sharp_maximal_r_norm
from dyadlab.operators import commutator_handle, paraproduct_handle
from dyadlab.weights import BloomTriple, ExponentConfig, Weight, ap_characteristic

P, Q = 4.0, 2.0
T, S = 2.0**12, 2.0**6  # t^(1/4) = 8, s^(1/2) = 8, c = 2^4 * 2^-4
REL = 1e-12
HANDLES = {"paraproduct": paraproduct_handle, "commutator": commutator_handle}
# (operator, d): the commutator is the Hilbert transform's, defined at d = 1
OPERATORS = [("paraproduct", 1), ("paraproduct", 2), ("commutator", 1)]


def _tree(dim: int) -> DyadicTree:
    return DyadicTree(dim, 6 if dim == 1 else 3, 4.0)


def _symbol(tree: DyadicTree) -> GridFunction:
    return GridFunction(tree, np.random.default_rng(7 + tree.dim).normal(size=tree.shape))


def _scaled(w: Weight, c: float) -> Weight:
    """c w, a cellwise weight with the masses of w times c."""
    return Weight(w.tree, c * w.density, c * w.cell_mass)


def _reflected(b: GridFunction) -> GridFunction:
    return GridFunction(b.tree, np.flip(b.values))


def _estimate(name: str, b: GridFunction, mu: Weight, lam: Weight) -> float:
    report = empirical_operator_norm(HANDLES[name](b), mu, lam, P, Q, b.tree, restarts=2,
                                     iterations=4, seed=3)
    return report.value


def _weights(tree: DyadicTree) -> tuple[Weight, Weight]:
    """mu = |x| and lambda = Lebesgue measure, as in the bloom config."""
    return Weight.power_weight(tree, 1.0), Weight.lebesgue(tree)


class TestEstimator:
    @pytest.mark.parametrize("name,dim", OPERATORS)
    def test_lambda_scale(self, name, dim):
        tree = _tree(dim)
        b, (mu, lam) = _symbol(tree), _weights(tree)
        want = S ** (1.0 / Q) * _estimate(name, b, mu, lam)
        assert _estimate(name, b, mu, _scaled(lam, S)) == pytest.approx(want, rel=REL)

    @pytest.mark.parametrize("name,dim", OPERATORS)
    def test_symbol_doubled(self, name, dim):
        tree = _tree(dim)
        b, (mu, lam) = _symbol(tree), _weights(tree)
        want = 2.0 * _estimate(name, b, mu, lam)
        assert _estimate(name, GridFunction(tree, 2.0 * b.values), mu, lam) == pytest.approx(
            want, rel=REL)

    @pytest.mark.parametrize("name,dim", OPERATORS)
    def test_symbol_shifted(self, name, dim):
        tree = _tree(dim)
        b, (mu, lam) = _symbol(tree), _weights(tree)
        want = _estimate(name, b, mu, lam)
        assert _estimate(name, b + 3.0, mu, lam) == pytest.approx(want, rel=REL)

    @pytest.mark.parametrize("name,dim", OPERATORS)
    def test_symbol_reflected(self, name, dim):
        tree = _tree(dim)
        b, (mu, lam) = _symbol(tree), _weights(tree)
        want = _estimate(name, b, mu, lam)
        assert _estimate(name, _reflected(b), mu, lam) == pytest.approx(want, rel=REL)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 24: the ascent's first step and its "
                       "zero-gradient cut are Euclidean, not relative to the row, so the path "
                       "depends on the units of mu")
    @pytest.mark.parametrize("name,dim", OPERATORS)
    def test_mu_scale(self, name, dim):
        tree = _tree(dim)
        b, (mu, lam) = _symbol(tree), _weights(tree)
        want = T ** (-1.0 / P) * _estimate(name, b, mu, lam)
        assert _estimate(name, b, _scaled(mu, T), lam) == pytest.approx(want, rel=REL)


def _phi(b: GridFunction, nu: Weight, scope: str) -> float:
    return sharp_maximal_r_norm(b, nu, ExponentConfig(P, Q).r, scope).value


def _bmo(b: GridFunction, nu: Weight, scope: str) -> float:
    return bmo_alpha_norm(b, nu, ExponentConfig(P, Q, b.tree.dim).alpha, scope)


FUNCTIONALS = {"phi": _phi, "bmo": _bmo}
# (d, scope): the shifted lattices are d = 1 only
SCOPES = [(1, "dyadic"), (1, "shifted"), (2, "dyadic")]


def _nu(tree: DyadicTree) -> Weight:
    mu, lam = _weights(tree)
    return BloomTriple(mu, lam, ExponentConfig(P, Q, tree.dim)).nu


class TestFunctionals:
    @pytest.mark.parametrize("functional", FUNCTIONALS)
    @pytest.mark.parametrize("dim,scope", SCOPES)
    def test_symbol_doubled(self, functional, dim, scope):
        tree = _tree(dim)
        b, nu, f = _symbol(tree), _nu(tree), FUNCTIONALS[functional]
        doubled = GridFunction(tree, 2.0 * b.values)
        assert f(doubled, nu, scope) == pytest.approx(2.0 * f(b, nu, scope), rel=REL)

    @pytest.mark.parametrize("functional", FUNCTIONALS)
    @pytest.mark.parametrize("dim,scope", SCOPES)
    def test_symbol_shifted(self, functional, dim, scope):
        tree = _tree(dim)
        b, nu, f = _symbol(tree), _nu(tree), FUNCTIONALS[functional]
        assert f(b + 3.0, nu, scope) == pytest.approx(f(b, nu, scope), rel=REL)

    @pytest.mark.parametrize("functional", FUNCTIONALS)
    @pytest.mark.parametrize("dim,scope", SCOPES)
    def test_symbol_reflected(self, functional, dim, scope):
        tree = _tree(dim)
        b, nu, f = _symbol(tree), _nu(tree), FUNCTIONALS[functional]
        assert f(_reflected(b), nu, scope) == pytest.approx(f(b, nu, scope), rel=REL)

    @pytest.mark.parametrize("t,s", [(T, 1.0), (1.0, S), (T, S)], ids=["mu", "lambda", "both"])
    @pytest.mark.parametrize("dim,scope", SCOPES)
    def test_units(self, dim, scope, t, s):
        """t mu and s lambda make nu into c nu: phi takes c^(1/r - 1), the oscillation
        norm c^(-(1 + alpha/d)), and A_p of each weight nothing."""
        tree = _tree(dim)
        b, (mu, lam) = _symbol(tree), (_scaled(w, 1.0) for w in _weights(tree))
        cfg = ExponentConfig(P, Q, dim)
        e = cfg.bloom_exponent
        c = t ** (1.0 / (P * e)) * s ** (-1.0 / (Q * e))
        nu = BloomTriple(mu, lam, cfg).nu
        nu_scaled = BloomTriple(_scaled(mu, t), _scaled(lam, s), cfg).nu
        assert _phi(b, nu_scaled, scope) == pytest.approx(
            c ** (1.0 / cfg.r - 1.0) * _phi(b, nu, scope), rel=REL)
        assert _bmo(b, nu_scaled, scope) == pytest.approx(
            c ** (-(1.0 + cfg.alpha / dim)) * _bmo(b, nu, scope), rel=REL)
        for w, k, p in ((mu, t, P), (lam, s, Q), (nu, c, 2.0 * cfg.r_conj)):
            assert ap_characteristic(_scaled(w, k), p, scope) == pytest.approx(
                ap_characteristic(w, p, scope), rel=REL)
