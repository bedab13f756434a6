"""Reference bodies for the construct path's scalar and term-set code.

These are the numpy and all-pairs forms that the shipped code replaced:
kernel arithmetic on 0-d arrays, ``numpy.polynomial`` evaluation, a
pairwise duplicate scan, a pairwise merge of assembled terms, classes
from every pair of terms and term sums added one term at a time.  The
shipped code must give their bytes.  Each function keeps the name and
signature of what it stands in for, so a test can monkeypatch it in.
"""

import numpy as np
from numpy.polynomial import polynomial as npoly

from qpwalk.errors import EmptyComponent
from qpwalk.terms import PartitionResult, WeightedTerm, _close


def kernel_value(self, x, y):
    """``KernelPoly.value`` on numpy arrays and 0-d arrays."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = np.zeros(np.broadcast(x, y).shape)
    for a in range(3):
        for b in range(3):
            total += self.c[a, b] * x**a * y**b
    return total if total.shape else float(total)


def y_quadratic(ker, x):
    x = np.asarray(x, dtype=float)
    c = ker.c
    A = c[0, 2] + x * (c[1, 2] + x * c[2, 2])
    B = c[0, 1] + x * (c[1, 1] + x * c[2, 1])
    C = c[0, 0] + x * (c[1, 0] + x * c[2, 0])
    return A, B, C


def polyval(coeffs, x: float) -> float:
    return float(npoly.polyval(x, coeffs))


def gamma_init(self, terms):
    """``GammaSet.__init__`` with every earlier term scanned for duplicates."""
    terms = tuple(terms)
    if not terms:
        raise EmptyComponent("a term set needs at least one term")
    seen = []
    for t in terms:
        if not (t.rho > 0.0 and t.sigma > 0.0):
            raise ValueError(f"nonpositive coordinates ({t.rho}, {t.sigma})")
        if t.alpha == 0.0:
            raise ValueError(f"zero coefficient at ({t.rho}, {t.sigma})")
        for r, s in seen:
            if _close(t.rho, r) and _close(t.sigma, s):
                raise ValueError(f"duplicate coordinates ({t.rho}, {t.sigma})")
        seen.append((t.rho, t.sigma))
    object.__setattr__(self, "terms", terms)


def merge_terms(terms):
    """``_merge_terms`` as the pairwise loop of ``assemble_measure``."""
    merged = []
    for t in terms:
        for idx, seen in enumerate(merged):
            if (
                abs(seen.rho - t.rho) <= 1e-9 * max(seen.rho, t.rho)
                and abs(seen.sigma - t.sigma) <= 1e-9 * max(seen.sigma, t.sigma)
            ):
                merged[idx] = WeightedTerm(seen.rho, seen.sigma, seen.alpha + t.alpha)
                break
        else:
            merged.append(WeightedTerm(t.rho, t.sigma, t.alpha))
    return [t for t in merged if t.alpha != 0.0]


def _merge_classes(n, linked):
    """Classes of {0..n-1} under ``linked``, tested on every pair."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if linked(i, j):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(g) for _, g in sorted(groups.items()))


def maximal_partitions(g):
    terms, n = g.terms, len(g.terms)

    def same_rho(i, j):
        return _close(terms[i].rho, terms[j].rho)

    def same_sigma(i, j):
        return _close(terms[i].sigma, terms[j].sigma)

    return PartitionResult(
        h_groups=_merge_classes(n, same_rho),
        v_groups=_merge_classes(n, same_sigma),
        g_groups=_merge_classes(n, lambda i, j: same_rho(i, j) or same_sigma(i, j)),
    )


def term_sum(terms, i, j):
    """``_term_sum`` as one ``+=`` per term."""
    i = np.asarray(i)
    j = np.asarray(j)
    total = np.zeros(np.broadcast(i, j).shape)
    for t in terms:
        total += t.value(i, j)
    return total


def patch_all(monkeypatch):
    """Swap every reference body into the package."""
    from qpwalk import cli, compensation, curve, terms

    monkeypatch.setattr(curve.KernelPoly, "value", kernel_value)
    monkeypatch.setattr(curve, "y_quadratic", y_quadratic)
    monkeypatch.setattr(compensation, "y_quadratic", y_quadratic)
    monkeypatch.setattr(curve, "_polyval", polyval)
    monkeypatch.setattr(terms.GammaSet, "__init__", gamma_init)
    monkeypatch.setattr(compensation, "_merge_terms", merge_terms)
    monkeypatch.setattr(compensation, "_term_sum", term_sum)
    monkeypatch.setattr(terms, "_term_sum", term_sum)
    monkeypatch.setattr(terms, "maximal_partitions", maximal_partitions)
    monkeypatch.setattr(cli, "maximal_partitions", maximal_partitions)
