"""Uniform truncated-box discretization of R^3.

The unbounded domain is replaced by the cube [-L, L]^3 sampled on n nodes
per axis with spacing h = 2L/n.  Nodes sit at cell midpoints
(j + 1/2)h - L and n is even, so no node coincides with the origin and
singular Coulomb-type potentials stay finite at every node.  Quadrature is
the midpoint rule h^3 * sum, which is the natural rule on this node layout
and converges fast for smooth decaying fields.

Fields are stored flat in x-fastest order (the dump format below); the
3-D view `as3d` has axes ordered (x, y, z).  Fields are treated as zero
outside the box (a zero ghost layer).  `minus_laplacian` is the
package's one -Lap on that box, in one of the `KINETICS`: the 7-point
second-order stencil ("fd") or the exact sine-spectral operator
("spectral").  Both have the DST-I sine modes as eigenvectors
(`dirichlet_eigenvalues`, `sine_transform`), so the Sobolev
preconditioner and the Poisson defect correction are diagonal in those
modes, and `dirichlet_energy` is the quadratic form of either.  Only
this module maps a kinetic name to an operator or a table.

Dump format (bit-exact round trip): one ASCII header line
``SPGS1 n=<n> L=<decimal> staggered=1\\n`` followed by n^3
little-endian IEEE float64 values, x-fastest.  Dumps of the retired
nodal layout, headed ``staggered=0``, are refused.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

# kinetic discretisations of -Lap, all diagonal in the DST-I sine modes
KINETICS = ("fd", "spectral")

@dataclass(frozen=True)
class GridSpec:
    """Cubic box [-L, L]^3 with n nodes per axis at the cell midpoints.

    Parameters
    ----------
    L : float
        Half-width of the box.
    n : int
        Nodes per axis, even and at least 8, so the origin falls between
        nodes.
    """

    L: float
    n: int

    def __post_init__(self) -> None:
        if not 0 < self.L < np.inf:
            raise ValueError(f"half-width must be positive and finite, got L={self.L}")
        if self.n < 8:
            raise ValueError(f"need at least 8 nodes per axis, got n={self.n}")
        if self.n % 2 != 0:
            raise ValueError(f"need even n, otherwise a node lands on the origin; got n={self.n}")

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
        c = -self.L + (j + 0.5) * self.h
        c.setflags(write=False)
        return c

    def coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Meshgrid coordinate arrays X, Y, Z with axes (x, y, z)."""
        return np.meshgrid(self.axis, self.axis, self.axis, indexing="ij")

    @property
    def radius(self) -> np.ndarray:
        """|x| at every node, shape (n, n, n), axes (x, y, z).

        Built on each use from the squared axis, so no n^3 array outlives
        its caller; the sums run in the order x^2 + y^2 + z^2.
        """
        a2 = self.axis * self.axis
        r = (a2[:, None, None] + a2[:, None]) + a2
        return np.sqrt(r, out=r)


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
    a = np.abs(u.values)
    a **= s  # in place: one field-size temporary, not two
    return u.grid.h**3 * float(np.sum(a))


def l2_norm(u: ScalarField) -> float:
    """Quadrature-weighted L2 norm sqrt(integral of u^2)."""
    return float(np.sqrt(u.grid.h**3 * np.sum(u.values * u.values)))


def h1_norm(u: ScalarField) -> float:
    """Sobolev norm sqrt(integral of |grad u|^2 + u^2)."""
    return float(np.sqrt(dirichlet_energy(u) + u.grid.h**3 * np.sum(u.values * u.values)))


def dirichlet_energy(u: ScalarField, kinetic: str = "fd") -> float:
    """Discrete Dirichlet form h^3 <u, -Lap u>: integral of |grad u|^2.

    -Lap is `minus_laplacian` in the given kinetic; both are symmetric, so
    the form is exactly quadratic in u and its L^2 gradient is -2 Lap u.
    """
    return u.grid.h**3 * float(np.sum(u.values * minus_laplacian(u, kinetic).values))


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
        raise ValueError(f"unknown kinetic variant {kinetic!r}; options: {KINETICS}")
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
    per axis, each as m slab-by-slab products, which BLAS does not spread
    over threads that can stall on a busy host.  S is symmetric and
    S S = 2(m + 1) I, so `inverse=True` (idstn) is the same three products
    scaled by (2(m + 1))^-3.  The block
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
    t = np.matmul(s, np.matmul(c, s))
    out = np.empty_like(t)
    np.matmul(s, t.transpose(1, 0, 2), out=out.transpose(1, 0, 2))
    if inverse:
        out *= 1.0 / (2.0 * (m + 1)) ** 3
    return out.T if flip else out


def minus_laplacian(u: ScalarField, kinetic: str = "fd") -> ScalarField:
    """-Lap u with a zero ghost layer, in one of the `KINETICS`.

    "fd" is the 7-point stencil, "spectral" the DST-I operator with the
    exact eigenvalue of each sine mode; both have the sine modes as
    eigenvectors and `dirichlet_eigenvalues` as eigenvalues.
    """
    g = u.grid
    if kinetic == "fd":
        # the six neighbours summed in place, in the order x+, x-, y+, y-, z+, z-;
        # a neighbour beyond the box is a zero ghost and adds nothing
        a = u.as3d
        out = np.empty_like(a)
        out[:-1] = a[1:]
        out[-1] = 0.0
        out[1:] += a[:-1]
        out[:, :-1] += a[:, 1:]
        out[:, 1:] += a[:, :-1]
        out[:, :, :-1] += a[:, :, 1:]
        out[:, :, 1:] += a[:, :, :-1]
        out -= 6.0 * a
        out /= -(g.h**2)
        return ScalarField.from_3d(g, out)
    lam = dirichlet_eigenvalues(g.n, g.h, kinetic)
    coeff = sine_transform(u.as3d)
    coeff *= lam
    return ScalarField.from_3d(g, sine_transform(coeff, inverse=True))


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
    header = f"SPGS1 n={g.n} L={g.L!r} staggered=1\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(u.values.astype("<f8", copy=False).tobytes())


def read_field(path: str | Path) -> ScalarField:
    """Read a field written by `write_field` (bit-exact round trip).

    The file must hold exactly the header and the 8 n^3 payload bytes its
    n announces; anything else is a ValueError, as is a bad header.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip()
        parts = header.split()
        if len(parts) != 4 or parts[0] != "SPGS1":
            raise ValueError(f"not a field dump: bad header {header!r}")
        fields = dict(p.split("=", 1) for p in parts[1:])
        missing = [key for key in ("n", "L", "staggered") if key not in fields]
        if missing:
            raise ValueError(f"not a field dump: header {header!r} lacks {', '.join(missing)}")
        if fields["staggered"] != "1":
            raise ValueError(
                f"field dump {header!r}: staggered=1 is the only layout; "
                "the nodal layout (staggered=0) is retired"
            )
        grid = GridSpec(L=float(fields["L"]), n=int(fields["n"]))
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != 8 * grid.num_nodes:
            raise ValueError(
                f"field dump {header!r}: expected {8 * grid.num_nodes} payload bytes, found {payload}"
            )
        data = np.frombuffer(fh.read(payload), dtype="<f8")
    return ScalarField(grid, data)
