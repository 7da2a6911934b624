"""Layered parameter vectors: norms, sphere sampling, projection, arithmetic.

A model's parameters are one flat float64 buffer with a read-only view per
named layer. Construction from layers copies them into a fresh buffer, which
is frozen and checked to be finite; every operation is one array operation
on buffers and returns a new vector, so vectors can be shared freely.

Perturbation directions are plain rows, not vectors: sphere_rows draws a
(k, n) stack of norm-gamma rows in the flat coordinate order (normal_rows
draws it, scale_rows rescales it, so two threads can split the two), and a
Shifter walks w + u over such rows through one buffer it builds once, so
evaluating a neighborhood builds no vector per direction or per stack.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Optional

import numpy as np


class NormKind(Enum):
    EUCLIDEAN = "euclidean"
    SUP = "sup"
    LAYERWISE_FROBENIUS = "layerwise_frobenius"


class NonFiniteError(ValueError):
    """A parameter vector would hold a NaN or an infinity."""


def _split_layers(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of consecutive segments of flat, one per shape, in order."""
    views = []
    offset = 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return views


def _check_finite(names, shapes, flat: np.ndarray) -> None:
    """NonFiniteError naming the first layer of flat that holds a NaN or an
    infinity."""
    if not np.isfinite(flat).all():
        bad = next(n for n, a in zip(names, _split_layers(flat, shapes)) if not np.isfinite(a).all())
        raise NonFiniteError(f"non-finite values in layer {bad!r}")


class ParamVector:
    """Ordered named layers held in one flat float64 buffer.

    Flattened-coordinate order is layer order, then row-major within each
    layer; this fixes the meaning of every coordinate-indexed operation.
    Arithmetic between two vectors requires identical layer names and shapes.
    """

    __slots__ = ("_names", "_shapes", "_flat", "_arrays")

    def __init__(self, layers: Iterable[tuple[str, np.ndarray]]):
        names: list[str] = []
        parts: list[np.ndarray] = []
        for name, values in layers:
            names.append(str(name))
            parts.append(np.asarray(values, dtype=np.float64))
        if len(set(names)) != len(names):
            raise ValueError("duplicate layer names")
        flat = np.concatenate([p.ravel() for p in parts]) if parts else np.empty(0)
        self._adopt(tuple(names), tuple(p.shape for p in parts), flat)

    def _adopt(self, names, shapes, flat: np.ndarray) -> None:
        """Take ownership of the fresh buffer flat: freeze it, check it is
        finite, and cut it into per-layer views."""
        flat.flags.writeable = False
        _check_finite(names, shapes, flat)
        self._names = names
        self._shapes = shapes
        self._flat = flat
        self._arrays = tuple(_split_layers(flat, shapes))

    def _like(self, flat: np.ndarray) -> "ParamVector":
        """A vector with this one's layers, adopting the fresh buffer flat."""
        out = ParamVector.__new__(ParamVector)
        out._adopt(self._names, self._shapes, flat)
        return out

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        """Read-only per-layer views into the flat buffer."""
        return self._arrays

    @property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        return self._shapes

    @property
    def size(self) -> int:
        return self._flat.size

    def __len__(self) -> int:
        return len(self._arrays)

    def __iter__(self):
        return iter(zip(self._names, self._arrays))

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._arrays[self._names.index(name)]
        except ValueError:
            raise KeyError(name) from None

    def flat(self) -> np.ndarray:
        """The read-only buffer: all coordinates in the canonical order."""
        return self._flat

    @classmethod
    def from_flat(cls, template: "ParamVector", flat: np.ndarray) -> "ParamVector":
        """Inverse of flat(): a copy of flat cut into template's layers."""
        flat = np.array(flat, dtype=np.float64)
        if flat.shape != (template.size,):
            raise ValueError(f"expected {template.size} coordinates, got {flat.shape}")
        return template._like(flat)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamVector):
            return NotImplemented
        return (
            self._names == other._names
            and self._shapes == other._shapes
            and np.array_equal(self._flat, other._flat)
        )

    __hash__ = None  # mutable-by-convention container semantics

    def __repr__(self) -> str:
        desc = ", ".join(f"{n}{a.shape}" for n, a in self)
        return f"ParamVector({desc})"

    # -- serialization: {layer name -> {shape: [...], data: [row-major floats]}} --

    def to_json(self) -> str:
        """json.dumps of {name: {"shape": ..., "data": ...}}, byte for byte. A
        layer's data is written as the repr of its float list, which is its
        JSON text since every value is finite, without json's list of one
        string per number."""
        layers = (f'{json.dumps(n)}: {{"shape": {list(a.shape)}, "data": {a.ravel().tolist()}}}'
                  for n, a in self)
        return "{" + ", ".join(layers) + "}"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "ParamVector":
        """Inverse of save; ValueError on any malformed entry."""
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError("expected an object mapping layer names to layers")
        layers = []
        for name, entry in obj.items():
            try:
                shape = entry["shape"]
                # Only JSON integers >= 0: 96.9, true or -1 would load as some other shape.
                bad = [s for s in shape if type(s) is not int or s < 0]
                if bad:
                    raise ValueError(f"shape entry {bad[0]!r} is not an integer >= 0")
                data = np.asarray(entry["data"], dtype=np.float64).reshape(shape)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"layer {name!r}: {exc}") from None
            layers.append((name, data))
        return cls(layers)


def _check_same_structure(a: ParamVector, b: ParamVector) -> None:
    if a.names != b.names or a.shapes != b.shapes:
        raise ValueError(
            f"layer structure mismatch: {a.names}{a.shapes} vs {b.names}{b.shapes}"
        )


def axpy(w: ParamVector, alpha: float, d: ParamVector) -> ParamVector:
    """Elementwise w + alpha * d."""
    _check_same_structure(w, d)
    return w._like(w.flat() + alpha * d.flat())


def _array_norm(a: np.ndarray, kind: NormKind) -> float:
    """Euclidean (Frobenius) or sup norm of all entries of a."""
    if kind is NormKind.EUCLIDEAN:
        return float(np.sqrt(np.vdot(a, a).real))
    if kind is NormKind.SUP:
        return float(np.max(np.abs(a))) if a.size else 0.0
    raise ValueError(f"unknown norm kind: {kind}")


class Shifter:
    """The points w + u for rows u, written into one buffer behind one
    vector with w's layers, both built once: points(U) yields that vector
    once per row of U (a (k, n) array or a sequence of rows), in order,
    holding that row's sum until the next step. One Shifter serves any
    number of walks, one at a time. The sums are bitwise those of
    axpy(w, 1.0, u), and a non-finite sum raises NonFiniteError as axpy
    does."""

    __slots__ = ("_w", "_buf", "_point")

    def __init__(self, w: ParamVector):
        self._w = w
        self._buf = w.flat().copy()
        self._point = w._like(self._buf[:])  # the vector freezes its view; _buf stays writable

    def points(self, U) -> Iterator[ParamVector]:
        w, buf = self._w, self._buf
        for u in U:
            np.add(w.flat(), u, out=buf)
            _check_finite(w.names, w.shapes, buf)
            yield self._point


@functools.lru_cache(maxsize=16)
def _segments(shapes: tuple, kind: NormKind) -> tuple[NormKind, tuple[tuple[int, int], ...]]:
    """The norm scale_rows rescales by and the (lo, hi) coordinate ranges
    it rescales one at a time: each non-empty layer under
    LAYERWISE_FROBENIUS (by the Euclidean norm), else the whole row."""
    if kind is NormKind.LAYERWISE_FROBENIUS:
        ends = list(itertools.accumulate(math.prod(shape) for shape in shapes))
        return NormKind.EUCLIDEAN, tuple((lo, hi) for lo, hi in zip([0, *ends], ends) if hi > lo)
    return kind, ((0, sum(math.prod(shape) for shape in shapes)),)


def sphere_rows(
    template: ParamVector,
    gamma: float,
    kind: NormKind,
    k: int,
    rng: np.random.Generator,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """k random directions of norm exactly gamma, as the rows of a
    (k, template.size) float64 array: the first k rows of out when it is
    given (a reusable buffer), else a new array.

    The rows are one standard-normal fill of k * template.size values
    (normal_rows), each row then rescaled in place (scale_rows): each
    non-empty layer segment under LAYERWISE_FROBENIUS, the whole row under
    EUCLIDEAN/SUP, by gamma over the segment's norm. So a row is uniform on
    the gamma-sphere under EUCLIDEAN, each layer segment on its own under
    LAYERWISE_FROBENIUS; a SUP row lies on the sup-sphere but is not
    uniform on it (in 2-D its density along a face peaks at the face's
    centre). Row i holds exactly the values of the i-th of k successive
    sample_sphere calls on rng. gamma = 0 gives zero rows without consuming
    any randomness. A segment whose draw is all zeros (probability ~2^-53
    per value) raises RuntimeError; a gamma so large that a row overflows
    raises NonFiniteError naming its layer.
    """
    return scale_rows(template, gamma, kind, normal_rows(template, gamma, k, rng, out))


def normal_rows(
    template: ParamVector, gamma: float, k: int, rng: np.random.Generator, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """The draw half of sphere_rows: k rows of template.size standard
    normals from rng, in the first k rows of out when it is given, else in
    a new array; zero rows, drawing nothing, when gamma = 0."""
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    out = np.empty((k, template.size)) if out is None else out[:k]
    if gamma == 0.0:
        out.fill(0.0)
    else:
        rng.standard_normal(out=out)
    return out


def scale_rows(template: ParamVector, gamma: float, kind: NormKind, rows: np.ndarray) -> np.ndarray:
    """The rescale half of sphere_rows: each row of normal_rows' output
    rescaled in place to norm gamma, row by row; returns rows. Raises the
    errors sphere_rows names, at the first row that has one."""
    if gamma == 0.0:
        return rows
    kind, bounds = _segments(template.shapes, kind)
    # An overflowing radius shows as a non-finite row, checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        for row in rows:
            for lo, hi in bounds:
                segment = row[lo:hi]
                denom = _array_norm(segment, kind)
                if denom == 0.0:
                    raise RuntimeError("degenerate Gaussian draw: a zero-norm segment")
                segment *= gamma / denom
            _check_finite(template.names, template.shapes, row)
    return rows


def sample_sphere(
    template: ParamVector, gamma: float, kind: NormKind, rng: np.random.Generator
) -> ParamVector:
    """One direction of norm exactly gamma, shaped like template: the
    one-row case of sphere_rows, as a vector."""
    return template._like(sphere_rows(template, gamma, kind, 1, rng)[0])


@dataclass(frozen=True)
class Box:
    """The feasible set lo <= x <= hi on every flattened coordinate. project
    returns the Euclidean-nearest member, and w itself for a member. The
    default box is the whole space."""

    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"Box requires lo <= hi, got [{self.lo}, {self.hi}]")

    def project(self, w: ParamVector) -> ParamVector:
        if self.contains(w):
            return w
        return w._like(np.clip(w.flat(), self.lo, self.hi))

    def contains(self, w: ParamVector) -> bool:
        if self.lo == -math.inf and self.hi == math.inf:
            return True  # every vector is finite (ParamVector._adopt)
        flat = w.flat()
        return bool(np.all((flat >= self.lo) & (flat <= self.hi)))
