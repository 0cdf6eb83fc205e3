"""Input specs for sl_n with Cartan H and the standard R, built from matrix units.

Basis order (n ≥ 2, dimension n² − 1):

    H_a  = E_aa − E_{a+1,a+1}        a = 1 … n−1
    E_ij                             i < j, lexicographic
    E_ji                             same (i, j) order as the raising block

Structure constants come from commutators of the matrix units, expanded
over this basis.  R = ½ Σ_{i<j} (E_ij ⊗ E_ji − E_ji ⊗ E_ij), K = G, H is the
Cartan subalgebra and M the span of the root vectors.  The spec is plain
JSON in the program's input schema; the program only parses it.
"""

from __future__ import annotations

import numpy as np

# the program's defaults, pinned so that the inputs stay fixed if the defaults change
TOLERANCES = {"jacobi": 1e-10, "residual": 1e-6, "cond_threshold": 1e8, "fd_step": 1e-5}


def root_pairs(n: int) -> list:
    """The index pairs (i, j), i < j, 0-based, in basis order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def basis_matrices(n: int) -> list:
    """The n×n matrices of the basis, in basis order."""
    out = []
    for a in range(n - 1):
        m = np.zeros((n, n))
        m[a, a], m[a + 1, a + 1] = 1.0, -1.0
        out.append(m)
    for i, j in root_pairs(n):
        m = np.zeros((n, n))
        m[i, j] = 1.0
        out.append(m)
    for i, j in root_pairs(n):
        m = np.zeros((n, n))
        m[j, i] = 1.0
        out.append(m)
    return out


def labels(n: int) -> list:
    hs = [f"H{a + 1}" for a in range(n - 1)]
    es = [f"E{i + 1}{j + 1}" for i, j in root_pairs(n)]
    fs = [f"E{j + 1}{i + 1}" for i, j in root_pairs(n)]
    return hs + es + fs


def structure_constants(n: int) -> np.ndarray:
    """c[i, j, k]: coefficient of basis element k in [b_i, b_j]."""
    mats = basis_matrices(n)
    flat = np.array([m.ravel() for m in mats]).T  # (n², dim)
    dim = len(mats)
    c = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(i + 1, dim):
            br = mats[i] @ mats[j] - mats[j] @ mats[i]
            coords, *_ = np.linalg.lstsq(flat, br.ravel(), rcond=None)
            if np.max(np.abs(flat @ coords - br.ravel())) > 1e-12:
                raise ValueError(f"sl{n}: bracket of basis {i}, {j} leaves the span")
            coords = np.round(coords)  # commutators of matrix units have integer coordinates
            c[i, j], c[j, i] = coords, -coords
    return c


def spec(n: int, seed: int, num_points: int) -> dict:
    """The input document for sl_n, sampling `num_points` points from `seed`."""
    if n < 2:
        raise ValueError("sl_n needs n >= 2")
    dim = n * n - 1
    rank = n - 1
    c = structure_constants(n)
    triplets = [
        [i, j, k, float(c[i, j, k])]
        for i in range(dim)
        for j in range(i + 1, dim)
        for k in range(dim)
        if c[i, j, k] != 0.0
    ]
    npos = len(root_pairs(n))
    r_entries = [[rank + a, rank + npos + a, 0.5] for a in range(npos)]
    eye = np.eye(dim).tolist()
    return {
        "schema_version": "1",
        "scalars": "real",
        "name": f"sl{n}_cartan",
        "algebra": {"dim": dim, "structure_constants": triplets, "basis_labels": labels(n)},
        "r_matrix": r_entries,
        "subalgebra_K": eye,
        "subalgebra_H": eye[:rank],
        "complement_M": eye[rank:],
        "tolerances": dict(TOLERANCES),
        "sampling": {"seed": seed, "num_points": num_points, "box_radius": 1.0},
    }


def cartan_rho(n: int, x) -> np.ndarray:
    """Closed form of rho at λ = exp(Σ x_a H^a), in the basis above.

    rho = Σ_{i<j} (E_ij ⊗ E_ji − E_ji ⊗ E_ij) / (exp(x_i + … + x_{j−1}) − 1).
    """
    dim = n * n - 1
    rank = n - 1
    pairs = root_pairs(n)
    out = np.zeros((dim, dim))
    for a, (i, j) in enumerate(pairs):
        e, f = rank + a, rank + len(pairs) + a
        coef = 1.0 / np.expm1(float(np.sum(x[i:j])))
        out[e, f] += coef
        out[f, e] -= coef
    return out
