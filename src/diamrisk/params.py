"""Layered parameter vectors: norms, sphere sampling, projection, arithmetic.

A model's parameters are one flat float64 buffer with a read-only view per
named layer. Construction from layers copies them into a fresh buffer, which
is frozen and checked to be finite; every operation is one array operation
on buffers and returns a new vector, so vectors can be shared freely.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

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
        arrays = _split_layers(flat, shapes)
        if not np.isfinite(flat).all():
            bad = next(n for n, a in zip(names, arrays) if not np.isfinite(a).all())
            raise NonFiniteError(f"non-finite values in layer {bad!r}")
        self._names = names
        self._shapes = shapes
        self._flat = flat
        self._arrays = tuple(arrays)

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


def sample_sphere(
    template: ParamVector, gamma: float, kind: NormKind, rng: np.random.Generator
) -> ParamVector:
    """Uniform random direction with norm exactly gamma, shaped like template.

    One standard-normal draw fills the whole buffer, which is then rescaled
    in place to have norm gamma: each non-empty layer under
    LAYERWISE_FROBENIUS, the flattened vector under EUCLIDEAN/SUP. gamma = 0
    returns the zero vector without consuming any randomness. A segment
    whose draw is all zeros (probability ~2^-53 per value) raises
    RuntimeError.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if gamma == 0.0:
        return ParamVector.zeros_like(template)

    out = rng.standard_normal(template.size)
    if kind is NormKind.LAYERWISE_FROBENIUS:
        segments = [a for a in _split_layers(out, template.shapes) if a.size]
        kind = NormKind.EUCLIDEAN
    else:
        segments = [out]
    for segment in segments:
        denom = _array_norm(segment, kind)
        if denom == 0.0:
            raise RuntimeError("degenerate Gaussian draw: a zero-norm segment")
        segment *= gamma / denom
    return template._like(out)


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
