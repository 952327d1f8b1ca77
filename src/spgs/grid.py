"""Uniform truncated-box discretization of R^3.

The unbounded domain is replaced by the cube [-L, L]^3 sampled on n nodes
per axis with spacing h = 2L/n.  Grids are staggered by default: nodes sit
at cell midpoints (j + 1/2)h - L, so no node coincides with the origin and
singular Coulomb-type potentials stay finite at every node.  Quadrature is
the midpoint rule h^3 * sum, which is the natural rule on this node layout
and converges fast for smooth decaying fields.

Fields are stored flat in x-fastest order (the dump format below); the
3-D view `as3d` has axes ordered (x, y, z).  Fields are treated as zero
outside the box (a zero ghost layer).  On that box the 7-point
second-order Laplacian and the exact sine-spectral one share the DST-I
sine modes as eigenvectors (`dirichlet_eigenvalues`, `sine_transform`):
the kinetic term is either, and the Sobolev preconditioner and the
Poisson defect correction are diagonal in those modes.

Dump format (bit-exact round trip): one ASCII header line
``SPGS1 n=<n> L=<decimal> staggered=<0|1>\\n`` followed by n^3
little-endian IEEE float64 values, x-fastest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Cubic box [-L, L]^3 with n nodes per axis and spacing h = 2L/n.

    Parameters
    ----------
    L : float
        Half-width of the box.
    n : int
        Nodes per axis, at least 8.  Staggered grids need even n so the
        origin falls between nodes.
    staggered : bool
        Nodes at cell midpoints when True (default), at -L + j*h otherwise.
    """

    L: float
    n: int
    staggered: bool = True

    def __post_init__(self) -> None:
        if not self.L > 0:
            raise ValueError(f"half-width must be positive, got L={self.L}")
        if self.n < 8:
            raise ValueError(f"need at least 8 nodes per axis, got n={self.n}")
        if self.staggered and self.n % 2 != 0:
            raise ValueError(
                "staggered grids need even n, otherwise a node lands on the origin"
            )

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def num_nodes(self) -> int:
        return self.n**3

    @cached_property
    def axis(self) -> np.ndarray:
        """Node coordinates along one axis (shared by x, y, z)."""
        j = np.arange(self.n, dtype=np.float64)
        offset = 0.5 if self.staggered else 0.0
        c = -self.L + (j + offset) * self.h
        c.setflags(write=False)
        return c

    def coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Meshgrid coordinate arrays X, Y, Z with axes (x, y, z)."""
        return np.meshgrid(self.axis, self.axis, self.axis, indexing="ij")

    @cached_property
    def radius(self) -> np.ndarray:
        """|x| at every node, shape (n, n, n)."""
        x, y, z = self.coords()
        r = np.sqrt(x * x + y * y + z * z)
        r.setflags(write=False)
        return r

    def min_radius(self) -> float:
        return float(self.radius.min())


@dataclass(frozen=True)
class ScalarField:
    """Real field sampled on a GridSpec, flat storage in x-fastest order."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.values, dtype=np.float64).reshape(-1)
        if v.size != self.grid.num_nodes:
            raise ValueError(
                f"field length {v.size} does not match grid with n^3={self.grid.num_nodes}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must all be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def as3d(self) -> np.ndarray:
        """(n, n, n) view with axes (x, y, z); x is the fastest flat index."""
        n = self.grid.n
        return self.values.reshape((n, n, n), order="F")

    @classmethod
    def from_function(
        cls, grid: GridSpec, f: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    ) -> "ScalarField":
        x, y, z = grid.coords()
        return cls.from_3d(grid, np.asarray(f(x, y, z), dtype=np.float64))

    @classmethod
    def from_3d(cls, grid: GridSpec, arr: np.ndarray) -> "ScalarField":
        return cls(grid, np.asarray(arr).ravel(order="F"))

    @classmethod
    def zeros(cls, grid: GridSpec) -> "ScalarField":
        return cls(grid, np.zeros(grid.num_nodes))

    def scaled(self, t: float) -> "ScalarField":
        return ScalarField(self.grid, t * self.values)


def integrate(f: ScalarField) -> float:
    """Midpoint-rule integral h^3 * sum(f); linear in f."""
    return f.grid.h**3 * float(np.sum(f.values))


def lp_integral(u: ScalarField, s: float) -> float:
    """Integral of |u|^s for s >= 1."""
    if s < 1:
        raise ValueError(f"exponent must satisfy s >= 1, got s={s}")
    return u.grid.h**3 * float(np.sum(np.abs(u.values) ** s))


def l2_norm(u: ScalarField) -> float:
    """Quadrature-weighted L2 norm sqrt(integral of u^2)."""
    return float(np.sqrt(u.grid.h**3 * np.sum(u.values * u.values)))


def h1_norm(u: ScalarField) -> float:
    """Sobolev norm sqrt(integral of |grad u|^2 + u^2)."""
    return float(np.sqrt(dirichlet_energy(u) + u.grid.h**3 * np.sum(u.values * u.values)))


def _sum_squares(d: np.ndarray) -> float:
    v = d.ravel(order="K")
    return float(v @ v)


def dirichlet_energy(u: ScalarField) -> float:
    """Discrete Dirichlet form: integral of |grad u|^2.

    Realized as the summation-by-parts link sum
    h * sum over forward-difference links (including links into the zero
    ghost layer), which equals h^3 <u, -Lap_h u> exactly.  That exactness
    is what makes the energy functional differentiable with the 7-point
    Laplacian as its gradient.  Per axis the sum is the interior link
    differences plus the two faces next to the ghost layer, whose links
    differ by the face values themselves.
    """
    h = u.grid.h
    total = 0.0
    for axis in range(3):
        a = np.moveaxis(u.as3d, axis, 0)
        total += _sum_squares(a[1:] - a[:-1]) + _sum_squares(a[0]) + _sum_squares(a[-1])
    return h * total


def laplacian(u: ScalarField) -> ScalarField:
    """7-point second-order Laplacian with a zero ghost layer."""
    a = u.as3d
    h2 = u.grid.h**2
    p = np.pad(a, 1)
    out = (
        p[2:, 1:-1, 1:-1]
        + p[:-2, 1:-1, 1:-1]
        + p[1:-1, 2:, 1:-1]
        + p[1:-1, :-2, 1:-1]
        + p[1:-1, 1:-1, 2:]
        + p[1:-1, 1:-1, :-2]
        - 6.0 * a
    ) / h2
    return ScalarField.from_3d(u.grid, out)


@lru_cache(maxsize=16)
def dirichlet_eigenvalues(m: int, h: float, kinetic: str = "fd") -> np.ndarray:
    """Eigenvalues of -Lap on an m^3 block of spacing h with zero ghosts beyond it.

    The DST-I sine modes diagonalize both variants: "fd" (the 7-point
    Laplacian) has sum_i (4/h^2) sin^2(pi k_i / (2(m+1))), "spectral" the
    exact sum_i (pi k_i / ((m+1) h))^2, k_i = 1..m.  The cached table is
    shared by every caller and read-only.
    """
    k = np.arange(1, m + 1)
    if kinetic == "fd":
        lam1 = (4.0 / h**2) * np.sin(np.pi * k / (2.0 * (m + 1))) ** 2
    elif kinetic == "spectral":
        lam1 = (np.pi * k / ((m + 1) * h)) ** 2
    else:
        raise ValueError(f"unknown kinetic variant {kinetic!r}")
    table = lam1[:, None, None] + lam1[None, :, None] + lam1[None, None, :]
    table.setflags(write=False)
    return table


@lru_cache(maxsize=8)
def _sine_matrix(m: int) -> np.ndarray:
    """S_jk = 2 sin(pi j k / (m + 1)), j, k = 1..m; cached and read-only."""
    k = np.arange(1, m + 1)
    s = 2.0 * np.sin(np.pi * np.outer(k, k) / (m + 1))
    s.setflags(write=False)
    return s


def sine_transform(a: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Unnormalised 3-D DST-I of an (m, m, m) block, scipy.fft.dstn(a, type=1).

    Runs as three products with the sine matrix S of `_sine_matrix`, one
    per axis.  S is symmetric and S S = 2(m + 1) I, so `inverse=True`
    (idstn) is the same three products scaled by (2(m + 1))^-3.  The block
    is read as a C-ordered [k, j, i] array (an F-ordered one through its
    transpose, which is how x-fastest field storage comes in), where the
    three products need no transpose or copy; the result has the input's
    memory order.  The transform is the same along every axis, so the
    axis order of the block does not matter.
    """
    m = a.shape[0]
    s = _sine_matrix(m)
    flip = a.flags.f_contiguous and not a.flags.c_contiguous
    c = np.ascontiguousarray(a.T if flip else a)
    out = np.matmul(c.reshape(m * m, m), s).reshape(m, m, m)
    out = np.matmul(s, out)
    out = np.matmul(s, out.reshape(m, m * m)).reshape(m, m, m)
    if inverse:
        out *= 1.0 / (2.0 * (m + 1)) ** 3
    return out.T if flip else out


def gradient_squared(u: ScalarField) -> ScalarField:
    """Pointwise |grad u|^2 from centered differences (zero ghost layer).

    Diagnostic integrand (annulus mass profiles); the Dirichlet energy of
    the functional uses the link form above instead.
    """
    a = u.as3d
    two_h = 2.0 * u.grid.h
    out = np.zeros_like(a)
    for axis in range(3):
        p = np.pad(a, [(1, 1) if ax == axis else (0, 0) for ax in range(3)])
        hi = [slice(2, None) if ax == axis else slice(None) for ax in range(3)]
        lo = [slice(None, -2) if ax == axis else slice(None) for ax in range(3)]
        g = (p[tuple(hi)] - p[tuple(lo)]) / two_h
        out += g * g
    return ScalarField.from_3d(u.grid, out)


def annulus_integral(u: ScalarField, r: float) -> float:
    """h^3 * sum of u over nodes with r <= |x| <= r + 1."""
    if r < 0:
        raise ValueError(f"annulus inner radius must be nonnegative, got r={r}")
    g = u.grid
    if r + 1.0 > g.L * np.sqrt(3.0):
        raise ValueError(
            f"annulus [r, r+1] with r={r} lies beyond the box corner radius {g.L * np.sqrt(3.0):.6g}"
        )
    rad = g.radius
    mask = (rad >= r) & (rad <= r + 1.0)
    return g.h**3 * float(np.sum(u.as3d[mask]))


def boundary_mass_fraction(u: ScalarField) -> float:
    """Fraction of the mass integral u^2 carried by the outermost node layer.

    Used to validate that the box truncation is benign (default gate 1e-8).
    """
    q = u.as3d ** 2
    total = float(np.sum(q))
    if total == 0.0:
        return 0.0
    inner = float(np.sum(q[1:-1, 1:-1, 1:-1]))
    return (total - inner) / total


def radialize(u: ScalarField) -> ScalarField:
    """Replace each node value by the mean over its exact radial shell.

    Shells are the lattice-symmetry orbits (nodes sharing |x|); radial
    functions are fixed points, so the residual u - radialize(u) measures
    genuine angular asymmetry.
    """
    g = u.grid
    _, inverse = np.unique(g.radius.ravel(order="F"), return_inverse=True)
    sums = np.bincount(inverse, weights=u.values)
    counts = np.bincount(inverse)
    means = sums / counts
    return ScalarField(g, means[inverse])


def write_field(u: ScalarField, path: str | Path) -> None:
    """Dump a field: ASCII header then raw little-endian float64, x-fastest."""
    g = u.grid
    header = f"SPGS1 n={g.n} L={g.L!r} staggered={1 if g.staggered else 0}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(u.values.astype("<f8", copy=False).tobytes())


def read_field(path: str | Path) -> ScalarField:
    """Read a field written by `write_field` (bit-exact round trip)."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip()
        parts = header.split()
        if len(parts) != 4 or parts[0] != "SPGS1":
            raise ValueError(f"not a field dump: bad header {header!r}")
        fields = dict(p.split("=", 1) for p in parts[1:])
        missing = [key for key in ("n", "L", "staggered") if key not in fields]
        if missing:
            raise ValueError(f"not a field dump: header {header!r} lacks {', '.join(missing)}")
        grid = GridSpec(
            L=float(fields["L"]),
            n=int(fields["n"]),
            staggered=fields["staggered"] == "1",
        )
        data = np.frombuffer(fh.read(8 * grid.num_nodes), dtype="<f8")
    return ScalarField(grid, data)
