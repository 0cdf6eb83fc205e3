"""Built-in validated example setups.

Each entry bundles an ambient algebra, an antisymmetric R, the chain
H ⊆ K ⊆ G with a chosen complement, and the sampling parameters under which
its verification suites pass.  The rank-two structure constants are embedded
as an explicit Chevalley-convention table rather than generated from root
data at runtime, so the numbers are auditable in place.

Entries:
  abelian2       two-dimensional abelian G, R = 0, trivial reduction H = K
  sl2_classical  split sl2, R = 0, H the Cartan line (the linear dual case)
  sl2_dj         split sl2, standard antisymmetrized R, H the Cartan line
  sl3_dj_cartan  split sl3, standard antisymmetrized R, H the Cartan plane
  sl3_dj_levi    split sl3, same R, H the gl2-type regular subalgebra
"""

from __future__ import annotations

import numpy as np

from . import bounds
from .bialgebra_double import ReductionSetup
from .errors import UnknownEntryError
from .specio import build_setup, parse_spec

# [e_i, e_j] = sum_k value * e_k, listed for i < j only
SL2_LABELS = ("h", "e", "f")
SL2_TABLE = (
    (0, 1, 1, 2.0),  # [h, e] = 2e
    (0, 2, 2, -2.0),  # [h, f] = -2f
    (1, 2, 0, 1.0),  # [e, f] = h
)

# basis order: h1, h2, e1, e2, e3, f1, f2, f3 with e3 = [e1, e2]
SL3_LABELS = ("h1", "h2", "e1", "e2", "e3", "f1", "f2", "f3")
SL3_TABLE = (
    (0, 2, 2, 2.0),  # [h1, e1] = 2 e1
    (0, 3, 3, -1.0),  # [h1, e2] = -e2
    (0, 4, 4, 1.0),  # [h1, e3] = e3
    (0, 5, 5, -2.0),  # [h1, f1] = -2 f1
    (0, 6, 6, 1.0),  # [h1, f2] = f2
    (0, 7, 7, -1.0),  # [h1, f3] = -f3
    (1, 2, 2, -1.0),  # [h2, e1] = -e1
    (1, 3, 3, 2.0),  # [h2, e2] = 2 e2
    (1, 4, 4, 1.0),  # [h2, e3] = e3
    (1, 5, 5, 1.0),  # [h2, f1] = f1
    (1, 6, 6, -2.0),  # [h2, f2] = -2 f2
    (1, 7, 7, -1.0),  # [h2, f3] = -f3
    (2, 3, 4, 1.0),  # [e1, e2] = e3
    (2, 5, 0, 1.0),  # [e1, f1] = h1
    (2, 7, 6, -1.0),  # [e1, f3] = -f2
    (3, 6, 1, 1.0),  # [e2, f2] = h2
    (3, 7, 5, 1.0),  # [e2, f3] = f1
    (4, 5, 3, -1.0),  # [e3, f1] = -e2
    (4, 6, 2, 1.0),  # [e3, f2] = e1
    (4, 7, 0, 1.0),  # [e3, f3] = h1 + h2
    (4, 7, 1, 1.0),
    (5, 6, 7, -1.0),  # [f1, f2] = -f3
)


def structure_constants_from_table(dim: int, table) -> np.ndarray:
    c = np.zeros((dim, dim, dim))
    for i, j, k, v in table:
        c[i, j, k] += v
        c[j, i, k] -= v
    return c


class CatalogEntry:
    """Named setup ingredients plus the sampling defaults that certify it.

    ``table`` lists the structure constants as (i, j, k, value) for i < j
    over the basis named by ``labels``.  document() writes the entry as an
    input file, and setup() reads that file through the same parser and
    validation as any other input.
    """

    def __init__(self, name, notes, table, labels, r_pairs, k_rows, h_rows, m_rows,
                 seed, num_points, cond_threshold=bounds.COND_THRESHOLD):
        self.name = name
        self.notes = notes
        self.table = table
        self.labels = labels
        self.r_pairs = r_pairs
        self.k_rows = k_rows
        self.h_rows = h_rows
        self.m_rows = m_rows
        self.seed = seed
        self.num_points = num_points
        # the conditioning bound each entry was first certified under; it
        # fixes the sampled points, so the reports stay comparable
        self.cond_threshold = cond_threshold

    def document(self) -> dict:
        """The entry in the structured input-file schema (round-trips through the CLI)."""
        return {
            "schema_version": "1",
            "scalars": "real",
            "name": self.name,
            "notes": self.notes,
            "algebra": {
                "dim": len(self.labels),
                "structure_constants": [[int(i), int(j), int(k), float(v)]
                                        for i, j, k, v in self.table],
                "basis_labels": list(self.labels),
            },
            # (1/2) Σ (e_a ⊗ f_a - f_a ⊗ e_a) over the raising/lowering pairs
            "r_matrix": [[int(a), int(b), 0.5] for a, b in self.r_pairs],
            "subalgebra_K": [list(row) for row in self.k_rows],
            "subalgebra_H": [list(row) for row in self.h_rows],
            "complement_M": [list(map(float, row)) for row in self.m_rows],
            "tolerances": {**bounds.TOLERANCES, "cond_threshold": self.cond_threshold},
            "sampling": {"seed": self.seed, "num_points": self.num_points, "box_radius": 1.0},
        }

    def setup(self) -> ReductionSetup:
        """The validated setup, through the parser that reads input files."""
        return build_setup(parse_spec(self.document()))


def _rows(dim, indices):
    return [list(np.eye(dim)[i]) for i in indices]


_ENTRIES = {}


def _register(entry: CatalogEntry):
    _ENTRIES[entry.name] = entry


_register(
    CatalogEntry(
        name="abelian2",
        notes="two-dimensional abelian ambient algebra, zero R, trivial reduction",
        table=(),
        labels=("a0", "a1"),
        r_pairs=(),
        k_rows=_rows(2, (0, 1)),
        h_rows=_rows(2, (0, 1)),
        m_rows=[],
        seed=1,
        num_points=5,
    )
)

_register(
    CatalogEntry(
        name="sl2_classical",
        notes="split sl2 with R = 0: the dual group is the linear dual space",
        table=SL2_TABLE,
        labels=SL2_LABELS,
        r_pairs=(),
        k_rows=_rows(3, (0, 1, 2)),
        h_rows=_rows(3, (0,)),
        m_rows=_rows(3, (1, 2)),
        seed=6,
        num_points=10,
        cond_threshold=2.5,
    )
)

_register(
    CatalogEntry(
        name="sl2_dj",
        notes="split sl2 with the standard antisymmetrized R, Cartan residual subgroup",
        table=SL2_TABLE,
        labels=SL2_LABELS,
        r_pairs=((1, 2),),
        k_rows=_rows(3, (0, 1, 2)),
        h_rows=_rows(3, (0,)),
        m_rows=_rows(3, (1, 2)),
        seed=6,
        num_points=10,
        cond_threshold=2.5,
    )
)

_register(
    CatalogEntry(
        name="sl3_dj_cartan",
        notes="split sl3 with the standard antisymmetrized R, Cartan residual subgroup",
        table=SL3_TABLE,
        labels=SL3_LABELS,
        r_pairs=((2, 5), (3, 6), (4, 7)),
        k_rows=_rows(8, range(8)),
        h_rows=_rows(8, (0, 1)),
        m_rows=_rows(8, (2, 3, 4, 5, 6, 7)),
        seed=3,
        num_points=10,
        cond_threshold=6.0,
    )
)

_register(
    CatalogEntry(
        name="sl3_dj_levi",
        notes="split sl3 with the standard antisymmetrized R, gl2-type regular residual subgroup",
        table=SL3_TABLE,
        labels=SL3_LABELS,
        r_pairs=((2, 5), (3, 6), (4, 7)),
        k_rows=_rows(8, range(8)),
        h_rows=_rows(8, (0, 1, 2, 5)),
        m_rows=_rows(8, (3, 4, 6, 7)),
        seed=3,
        num_points=10,
        cond_threshold=4.0,
    )
)


def list_entries() -> list:
    return sorted(_ENTRIES)


def get_entry(name: str) -> CatalogEntry:
    try:
        return _ENTRIES[name]
    except KeyError:
        raise UnknownEntryError(
            f"unknown catalog entry {name!r}; available: {', '.join(list_entries())}"
        ) from None


def load_entry(name: str) -> ReductionSetup:
    return get_entry(name).setup()


def export_entry(name: str) -> dict:
    """The entry in the structured input-file schema (round-trips through the CLI)."""
    return get_entry(name).document()
