"""Layered parameter vectors: norms, sphere sampling, projection, arithmetic.

A model's parameters are held as an ordered list of named float64 arrays
(one entry per layer). All operations are pure: arrays are copied on
construction and frozen, and every operation returns a new vector, so
vectors can be shared freely across worker threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

_MAX_RESAMPLE_ATTEMPTS = 100


class NormKind(Enum):
    EUCLIDEAN = "euclidean"
    SUP = "sup"
    LAYERWISE_FROBENIUS = "layerwise_frobenius"


class ParamVector:
    """Ordered collection of named float64 arrays.

    Flattened-coordinate order is layer order, then row-major within each
    layer; this fixes the meaning of every coordinate-indexed operation.
    Arithmetic between two vectors requires identical layer names and shapes.
    """

    __slots__ = ("_names", "_arrays")

    def __init__(self, layers: Iterable[tuple[str, np.ndarray]]):
        names: list[str] = []
        arrays: list[np.ndarray] = []
        for name, values in layers:
            arr = np.array(values, dtype=np.float64)
            if arr.size and not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in layer {name!r}")
            arr.flags.writeable = False
            names.append(str(name))
            arrays.append(arr)
        if len(set(names)) != len(names):
            raise ValueError("duplicate layer names")
        self._names = tuple(names)
        self._arrays = tuple(arrays)

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        return self._arrays

    @property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(a.shape for a in self._arrays)

    @property
    def size(self) -> int:
        return sum(a.size for a in self._arrays)

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
        """Concatenated coordinates in the canonical flattened order."""
        if not self._arrays:
            return np.empty(0, dtype=np.float64)
        return np.concatenate([a.ravel(order="C") for a in self._arrays])

    @classmethod
    def zeros_like(cls, template: "ParamVector") -> "ParamVector":
        return cls((n, np.zeros(a.shape)) for n, a in template)

    @classmethod
    def from_flat(cls, template: "ParamVector", flat: np.ndarray) -> "ParamVector":
        """Inverse of flat(): reshape coordinates back into template layers."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (template.size,):
            raise ValueError(f"expected {template.size} coordinates, got {flat.shape}")
        layers = []
        offset = 0
        for name, arr in template:
            layers.append((name, flat[offset : offset + arr.size].reshape(arr.shape)))
            offset += arr.size
        return cls(layers)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamVector):
            return NotImplemented
        return (
            self._names == other._names
            and self.shapes == other.shapes
            and all(np.array_equal(a, b) for a, b in zip(self._arrays, other._arrays))
        )

    __hash__ = None  # mutable-by-convention container semantics

    def allclose(self, other: "ParamVector", rtol: float = 1e-12, atol: float = 0.0) -> bool:
        _check_same_structure(self, other)
        return all(
            np.allclose(a, b, rtol=rtol, atol=atol)
            for a, b in zip(self._arrays, other._arrays)
        )

    def __repr__(self) -> str:
        desc = ", ".join(f"{n}{a.shape}" for n, a in self)
        return f"ParamVector({desc})"

    # -- serialization: {layer name -> {shape: [...], data: [row-major floats]}} --

    def to_json_dict(self) -> dict:
        return {
            n: {"shape": list(a.shape), "data": a.ravel(order="C").tolist()}
            for n, a in self
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ParamVector":
        layers = []
        for name, entry in obj.items():
            shape = tuple(int(s) for s in entry["shape"])
            data = np.asarray(entry["data"], dtype=np.float64).reshape(shape)
            layers.append((name, data))
        return cls(layers)

    @classmethod
    def from_json(cls, text: str) -> "ParamVector":
        return cls.from_json_dict(json.loads(text))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @classmethod
    def load(cls, path) -> "ParamVector":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _check_same_structure(a: ParamVector, b: ParamVector) -> None:
    if a.names != b.names or a.shapes != b.shapes:
        raise ValueError(
            f"layer structure mismatch: {a.names}{a.shapes} vs {b.names}{b.shapes}"
        )


def axpy(w: ParamVector, alpha: float, d: ParamVector) -> ParamVector:
    """Elementwise w + alpha * d."""
    _check_same_structure(w, d)
    return ParamVector(
        (n, a + alpha * b) for (n, a), b in zip(w, d.arrays)
    )


def norm(v: ParamVector, kind: NormKind):
    """Norm of v; a per-layer list of Frobenius norms for LAYERWISE_FROBENIUS."""
    if kind is NormKind.LAYERWISE_FROBENIUS:
        return [float(np.sqrt(np.vdot(a, a).real)) for _, a in v]
    flat = v.flat()
    if kind is NormKind.EUCLIDEAN:
        return float(np.sqrt(np.vdot(flat, flat).real))
    if kind is NormKind.SUP:
        return float(np.max(np.abs(flat))) if flat.size else 0.0
    raise ValueError(f"unknown norm kind: {kind}")


def _draw_unit(rng: np.random.Generator, shapes: Sequence[tuple[int, ...]]):
    """One Gaussian draw per shape; redraws an all-zero draw (probability ~0)."""
    arrays = []
    for shape in shapes:
        for attempt in range(_MAX_RESAMPLE_ATTEMPTS):
            g = rng.standard_normal(shape)
            if g.size == 0 or np.any(g != 0.0):
                arrays.append(g)
                break
        else:
            raise RuntimeError(
                f"degenerate Gaussian draw persisted for {_MAX_RESAMPLE_ATTEMPTS} attempts"
            )
    return arrays


def sample_sphere(
    template: ParamVector, gamma: float, kind: NormKind, rng: np.random.Generator
) -> ParamVector:
    """Uniform random direction with norm exactly gamma, shaped like template.

    Each component is drawn from a standard normal and the result is rescaled
    to have norm gamma: per layer under LAYERWISE_FROBENIUS, for the flattened
    vector under EUCLIDEAN/SUP. gamma = 0 returns the zero vector without
    consuming any randomness.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    if gamma == 0.0:
        return ParamVector.zeros_like(template)

    if kind is NormKind.LAYERWISE_FROBENIUS:
        layers = []
        for name, arr in template:
            if arr.size == 0:
                layers.append((name, np.zeros(arr.shape)))
                continue
            g = _draw_unit(rng, [arr.shape])[0]
            g_norm = float(np.sqrt(np.vdot(g, g).real))
            layers.append((name, g * (gamma / g_norm)))
        return ParamVector(layers)

    draws = _draw_unit(rng, [a.shape for a in template.arrays])
    flat = (
        np.concatenate([g.ravel() for g in draws]) if draws else np.empty(0)
    )
    if kind is NormKind.EUCLIDEAN:
        denom = float(np.sqrt(np.vdot(flat, flat).real))
    elif kind is NormKind.SUP:
        denom = float(np.max(np.abs(flat))) if flat.size else 0.0
    else:
        raise ValueError(f"unknown norm kind: {kind}")
    if denom == 0.0:
        raise RuntimeError("whole-vector draw degenerate after per-layer resampling")
    factor = gamma / denom
    return ParamVector((n, g * factor) for (n, _), g in zip(template, draws))


class FeasibleSet:
    """Set of permissible parameter vectors, with Euclidean-nearest projection."""

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
        return ParamVector((n, np.clip(a, self.lo, self.hi)) for n, a in w)

    def contains(self, w: ParamVector) -> bool:
        return all(
            bool(np.all((a >= self.lo) & (a <= self.hi))) for _, a in w
        )


@dataclass(frozen=True, eq=False)
class EuclideanBall(FeasibleSet):
    center: ParamVector
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError(f"ball radius must be >= 0, got {self.radius}")

    def _dist(self, w: ParamVector) -> float:
        _check_same_structure(w, self.center)
        return norm(axpy(w, -1.0, self.center), NormKind.EUCLIDEAN)

    def project(self, w: ParamVector) -> ParamVector:
        dist = self._dist(w)
        if dist <= self.radius:
            return w
        d = axpy(w, -1.0, self.center)
        factor = self.radius / dist
        # Radial projection; shave ulps off the factor until membership is
        # exact so that projection is exactly idempotent.
        for _ in range(16):
            candidate = axpy(self.center, factor, d)
            if self._dist(candidate) <= self.radius:
                return candidate
            factor = np.nextafter(factor, 0.0)
        raise RuntimeError("ball projection failed to converge")  # pragma: no cover

    def contains(self, w: ParamVector) -> bool:
        return self._dist(w) <= self.radius


def project(w: ParamVector, feasible: FeasibleSet) -> ParamVector:
    """Euclidean-nearest point of the feasible set; identity on members."""
    return feasible.project(w)
