"""Layered parameter vectors: norms, sphere sampling, projection, arithmetic.

A model's parameters are one flat float64 buffer with a read-only view per
named layer. Construction from layers copies them into a fresh buffer, which
is frozen and checked to be finite; every operation is one array operation
on buffers and returns a new vector, so vectors can be shared freely.

Perturbation directions are plain rows, not vectors: sphere_rows draws a
(k, n) stack of norm-gamma rows in the flat coordinate order, and shifted
walks w + u over such rows through one reused buffer, so evaluating a
neighborhood builds no vector per direction.
"""

from __future__ import annotations

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
    def zeros_like(cls, template: "ParamVector") -> "ParamVector":
        return template._like(np.zeros(template.size))

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

    def allclose(self, other: "ParamVector", rtol: float = 1e-12, atol: float = 0.0) -> bool:
        _check_same_structure(self, other)
        return bool(np.allclose(self._flat, other._flat, rtol=rtol, atol=atol))

    def __repr__(self) -> str:
        desc = ", ".join(f"{n}{a.shape}" for n, a in self)
        return f"ParamVector({desc})"

    # -- serialization: {layer name -> {shape: [...], data: [row-major floats]}} --

    def to_json(self) -> str:
        return json.dumps({n: {"shape": list(a.shape), "data": a.ravel().tolist()} for n, a in self})

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "ParamVector":
        """Inverse of save; ValueError on any malformed entry."""
        with open(path) as fh:
            obj = json.load(fh)
        if not isinstance(obj, dict):
            raise ValueError("expected an object mapping layer names to layers")
        layers = []
        for name, entry in obj.items():
            try:
                shape = tuple(int(s) for s in entry["shape"])
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


def norm(v: ParamVector, kind: NormKind):
    """Norm of v; a per-layer list of Frobenius norms for LAYERWISE_FROBENIUS."""
    if kind is NormKind.LAYERWISE_FROBENIUS:
        return [_array_norm(a, NormKind.EUCLIDEAN) for a in v.arrays]
    return _array_norm(v.flat(), kind)


def shifted(w: ParamVector, U) -> Iterator[ParamVector]:
    """w + u for each row u of U (a (k, n) array or a sequence of rows), in
    order. Every sum is written into one buffer behind one vector with w's
    layers, so each yielded vector is the same object and holds only until
    the next step. The sums are bitwise those of axpy(w, 1.0, u), and a
    non-finite sum raises NonFiniteError as axpy does."""
    buf = np.zeros(w.size)
    point = w._like(buf[:])  # the vector freezes its view; buf stays writable
    for u in U:
        np.add(w.flat(), u, out=buf)
        _check_finite(w.names, w.shapes, buf)
        yield point


def sphere_rows(
    template: ParamVector,
    gamma: float,
    kind: NormKind,
    k: int,
    rng: np.random.Generator,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """k uniform random directions of norm exactly gamma, as the rows of a
    (k, template.size) float64 array: the first k rows of out when it is
    given (a reusable buffer), else a new array.

    Each row is one standard-normal fill of template.size values, rescaled
    in place while it is in cache: each non-empty layer segment under
    LAYERWISE_FROBENIUS, the whole row under EUCLIDEAN/SUP, by
    gamma / norm(segment). Row i thus holds exactly the values of the i-th
    of k successive sample_sphere calls on rng. gamma = 0 gives zero rows
    without consuming any randomness. A segment whose draw is all zeros
    (probability ~2^-53 per value) raises RuntimeError; a gamma so large
    that a row overflows raises NonFiniteError naming its layer.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    out = np.empty((k, template.size)) if out is None else out[:k]
    if gamma == 0.0:
        out.fill(0.0)
        return out
    if kind is NormKind.LAYERWISE_FROBENIUS:
        ends = list(itertools.accumulate(math.prod(shape) for shape in template.shapes))
        bounds = [(lo, hi) for lo, hi in zip([0, *ends], ends) if hi > lo]
        kind = NormKind.EUCLIDEAN
    else:
        bounds = [(0, template.size)]
    # An overflowing radius shows as a non-finite row, checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        for row in out:
            rng.standard_normal(out=row)
            for lo, hi in bounds:
                segment = row[lo:hi]
                denom = _array_norm(segment, kind)
                if denom == 0.0:
                    raise RuntimeError("degenerate Gaussian draw: a zero-norm segment")
                segment *= gamma / denom
            _check_finite(template.names, template.shapes, row)
    return out


def sample_sphere(
    template: ParamVector, gamma: float, kind: NormKind, rng: np.random.Generator
) -> ParamVector:
    """One direction of norm exactly gamma, shaped like template: the
    one-row case of sphere_rows, as a vector."""
    return template._like(sphere_rows(template, gamma, kind, 1, rng)[0])


class FeasibleSet:
    """Set of permissible parameter vectors. project returns the
    Euclidean-nearest member, and is the identity on members."""

    def project(self, w: ParamVector) -> ParamVector:
        raise NotImplementedError

    def contains(self, w: ParamVector) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class Unbounded(FeasibleSet):
    def project(self, w: ParamVector) -> ParamVector:
        return w

    def contains(self, w: ParamVector) -> bool:
        return True


@dataclass(frozen=True)
class Box(FeasibleSet):
    """Per-coordinate bounds lo <= x <= hi on every flattened coordinate."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"Box requires lo <= hi, got [{self.lo}, {self.hi}]")

    def project(self, w: ParamVector) -> ParamVector:
        if self.contains(w):
            return w
        return w._like(np.clip(w.flat(), self.lo, self.hi))

    def contains(self, w: ParamVector) -> bool:
        flat = w.flat()
        return bool(np.all((flat >= self.lo) & (flat <= self.hi)))
