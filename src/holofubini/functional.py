"""Functionals on bounded holomorphic functions, realized as finite measures.

Every bounded-pointwise-continuous functional used here is represented by a
finite complex quadrature measure on the domain: nodes z_k and weights w_k with
phi(g) = sum_k w_k g(z_k), applied to the family values that a contour sample
holds at the nodes.  The total variation sum |w_k| is a computable upper bound
for the functional norm on the space of bounded holomorphic functions, and every
inequality checked downstream uses it in that role.

Point evaluations (Dirac measures) and Cauchy-derivative functionals are
built-in constructors; the derivative constructor takes its nodes and weights
from :func:`holofubini.cauchy.derivative_rule`, so on the run's contour its
nodes are the contour sample's grid and its values are the sample's.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cauchy import derivative_rule
from .domain import as_multi_index, parse_complex, sample_polydisc
from .family import ContourSample

__all__ = [
    "MeasureFunctional",
    "dirac",
    "derivative_functional",
    "random_measure",
    "functional_from_json",
]


@dataclass(frozen=True, eq=False)
class MeasureFunctional:
    """A finite complex measure sum_k w_k delta_{z_k} acting on slices.

    ``meaning`` records what the measure discretizes: "dirac" and
    "derivative" carry exact semantics (point evaluation, D^alpha at a
    center), "measure" is a generic finite measure whose own finite sum is
    its meaning.  Checkers use this to evaluate the ideal action through
    closed forms where one exists.
    """

    nodes: np.ndarray    # shape (k, d)
    weights: np.ndarray  # shape (k,)
    label: str
    meaning: str = "measure"
    center: np.ndarray | None = None
    alpha: tuple[int, ...] | None = None
    radii: np.ndarray | None = None

    def __post_init__(self):
        nodes = _frozen(np.atleast_2d(np.asarray(self.nodes, dtype=complex)))
        weights = _frozen(np.atleast_1d(np.asarray(self.weights, dtype=complex)))
        if nodes.shape[0] != weights.shape[0]:
            raise ValueError("need one weight per node")
        if not weights.size:
            raise ValueError(f"measure functional {self.label!r} needs at least one node")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def d(self) -> int:
        return self.nodes.shape[1]

    @property
    def total_variation(self) -> float:
        """sum_k |w_k|: an upper bound for the functional norm."""
        return float(np.sum(np.abs(self.weights)))

    def apply_slices(self, sample: ContourSample) -> np.ndarray:
        """The vector (phi(f(., t_i)))_i over all atoms, from ``sample``'s values on the
        nodes (:meth:`holofubini.family.ContourSample.node_values`)."""
        return self.weights @ sample.node_values(self)

    def apply_dual(self, sample: ContourSample, h):
        """phi(z -> <F(z), h>): weight each node's pairing with the dual vector.

        ``h`` of shape (k,) gives one complex value; a stack of dual vectors of shape
        (m, k) gives all m values from one pass over blocks of the nodes,
        :meth:`~holofubini.family.ContourSample.pair_duals`, whose node sums call no
        BLAS.  On the sample's contour that pass also gives every other functional of
        the run on it its values.
        """
        h = np.asarray(h, dtype=complex)
        # pair each node's F(z_j) with h before weighting the nodes; the other
        # association is the pairing of apply_slices, which linearization
        # checks this against
        out = sample.pair_duals(self, np.atleast_2d(h))
        return complex(out[0]) if h.ndim == 1 else out

    def ideal_slices(self, sample: ContourSample) -> np.ndarray:
        """The exact action per atom, through closed forms where semantics exist.

        Dirac measures evaluate f(z0, t_i) directly, derivative measures use
        the family's closed-form D^alpha; generic measures fall back to the
        finite sum, which is already their exact meaning.  Each is kept on
        ``sample``: the closed forms by
        :meth:`~holofubini.family.ContourSample.closed_form`, which reads no sample
        value, the finite sum as its slice vector
        (:meth:`~holofubini.family.ContourSample.slice_vector`).
        """
        if self.meaning == "dirac":
            return sample.closed_form(self.nodes[0])
        if self.meaning == "derivative":
            return sample.closed_form(self.center, self.alpha)
        return sample.slice_vector(self)

    def __repr__(self):
        return f"<MeasureFunctional {self.label!r} nodes={self.nodes.shape[0]} d={self.d}>"


def dirac(z0, label: str | None = None) -> MeasureFunctional:
    """Point evaluation delta_{z0}: one node, weight 1."""
    z0 = np.atleast_1d(np.asarray(z0, dtype=complex))
    if label is None:
        label = f"dirac:{_format_point(z0)}"
    return MeasureFunctional(nodes=z0[None, :], weights=np.ones(1), label=label,
                             meaning="dirac")


def derivative_functional(center, alpha, radii, n: int = 64,
                          label: str | None = None) -> MeasureFunctional:
    """The functional g -> D^alpha g(center), as its boundary quadrature measure.

    Takes its nodes and weights from :func:`~holofubini.cauchy.derivative_rule`;
    requires n > 2 max(alpha) + 2 so the discretization resolves the
    requested order with margin.
    """
    center = np.atleast_1d(np.asarray(center, dtype=complex))
    alpha = as_multi_index(alpha, center.shape[0])
    if n <= 2 * max(alpha) + 2:
        raise ValueError(
            f"node count {n} is too small for derivative order {max(alpha)}: "
            f"need n > {2 * max(alpha) + 2}"
        )
    pts, weights = derivative_rule(center, alpha, radii, n)
    if label is None:
        label = f"derivative:a={_format_point(center)},alpha={list(alpha)}"
    return MeasureFunctional(
        nodes=pts, weights=weights, label=label, meaning="derivative",
        center=center, alpha=alpha, radii=np.atleast_1d(np.asarray(radii, dtype=float)),
    )


def random_measure(disc, k: int = 8, shrink: float = 0.5, seed: int = 0) -> MeasureFunctional:
    """A seeded k-node complex measure supported in the shrink-scaled polydisc."""
    rng = np.random.default_rng(seed)
    nodes = sample_polydisc(disc, k, shrink, rng)
    weights = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return MeasureFunctional(nodes=nodes, weights=weights, label=f"random:{k}@seed{seed}")


def functional_from_json(doc) -> MeasureFunctional:
    """Load from {"label", "nodes", "weights"} or a named constructor document.

    Named constructors: {"dirac": {"z0": ...}} and
    {"derivative": {"center": ..., "alpha": [...], "radii": [...], "n": int}}.
    Node entries are [re, im] pairs (d = 1) or lists of pairs (d > 1).
    """
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    if "dirac" in doc:
        return dirac(_parse_node(doc["dirac"]["z0"]), label=doc.get("label"))
    if "derivative" in doc:
        params = doc["derivative"]
        return derivative_functional(
            _parse_node(params["center"]), params["alpha"], params["radii"],
            n=int(params.get("n", 64)), label=doc.get("label"),
        )
    nodes = np.array([_parse_node(nd) for nd in doc["nodes"]], dtype=complex)
    weights = parse_complex(doc["weights"], axes=1)
    return MeasureFunctional(nodes=nodes, weights=weights,
                             label=doc.get("label", "measure"))


def _parse_node(value) -> np.ndarray:
    """A node: a list of d complex entries where its first entry is a list, else one
    complex entry (d = 1)."""
    nested = (isinstance(value, (list, tuple)) and bool(value)
              and isinstance(value[0], (list, tuple)))
    return np.atleast_1d(parse_complex(value, axes=int(nested)))


def _frozen(values: np.ndarray) -> np.ndarray:
    """``values`` read-only: itself when it already is, so functionals may share one
    node array, else a read-only copy."""
    if values.flags.writeable:
        values = values.copy()
        values.setflags(write=False)
    return values


def _format_point(z: np.ndarray) -> str:
    return ",".join(f"{c.real:g}{c.imag:+g}j" for c in z)
