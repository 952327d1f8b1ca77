"""Uniform truncated-box discretization of R^3.

The unbounded domain is replaced by the cube [-L, L]^3 sampled on n nodes
per axis with spacing h = 2L/n.  Nodes sit at cell midpoints
(j + 1/2)h - L and n is even, so no node coincides with the origin and
singular Coulomb-type potentials stay finite at every node.  Quadrature is
the midpoint rule h^3 * sum, which is the natural rule on this node layout
and converges fast for smooth decaying fields.

Fields are stored flat in x-fastest order (the dump format below); the
3-D view `as3d` has axes ordered (x, y, z).  Fields are treated as zero
outside the box (a zero ghost layer).  A grid owns its -Lap: the field
`GridSpec.kinetic` names one of the `KINETICS`, the 7-point
second-order stencil ("fd") or the exact sine-spectral operator
("spectral"), and `minus_laplacian` of a field applies its grid's.
Both have the DST-I sine modes as eigenvectors, and `in_sine_modes`
applies an operator through them, forming each mode's eigenvalue from
the cached `dirichlet_eigenvalues` of one axis: the spectral -Lap, the
Sobolev preconditioner of the field's grid, and `poisson`'s defect
solve.  Only this module maps a kinetic name to an operator or a
table.  A field dump or a table read from outside a run holds a box
and node values, not an operator; `ScalarField.on` puts its values on
the run's grid.  A field's integrals, the action's terms and its H^1
norm, come from one pass in `functional.energy_breakdown`.

The octant box.  A field that equals its mirror images in x, y and z (a
radial well's state from a centred start) is fixed by its positive
octant, so a grid with `symmetry="octant"` keeps the box's L, n and h
but stores m = n/2 nodes per axis, the upper half of the full axis bit
for bit, and weighs each node 8 h^3 (`GridSpec.weight`).  Every layer
runs in the mirror-even basis there: the sine transforms keep the odd
modes k = 1, 3, ..., n - 1 (`sine_transform`), whose eigenvalues are the
odd-index entries of the full axis's table, and the fd stencil takes the
node's own value as the ghost beyond each centre face.  So an operator
of the octant is the full box's on mirror-even fields, to rounding.
A radial well or a centred blob is sampled on the octant, at its
stored nodes, with no full-box array.  A field from outside the run
(a table, a dump) holds full-box values: `ScalarField.on` folds it onto
the octant when it equals its mirror images bit for bit and refuses any
other.  An octant field leaves the octant unfolded into one new
F-ordered n^3 array by eight mirrored block copies (`_unfolded`), once
per use: `ScalarField.on` wraps that array, `boundary_mass_fraction`
squares it in place and `write_field` writes its buffer.  By Palais'
principle of symmetric criticality a critical point found in the
mirror-even subspace is one of the full action, but the octant's least
level is the least over mirror-even states only.

Every n^3 pass of the package runs once, on the caller's thread.
Reductions of n^3 data use np.sum or np.einsum, never np.dot, np.vdot or
@ with a vector, because a BLAS dot's rounding follows its own blocking
and OpenBLAS's thread count.  Passes that form a table entry by entry
(`in_sine_modes`'s eigenvalues, `poisson`'s lift) walk the block in
slabs of z planes through one cache-sized scratch array (`_slabs`).

Dump format (bit-exact round trip): one ASCII header line
``SPGS1 n=<n> L=<decimal> staggered=1\\n`` followed by n^3
little-endian IEEE float64 values, x-fastest, always of the full box.
Dumps of the retired nodal layout, headed ``staggered=0``, are refused.
"""

from __future__ import annotations

import itertools
import operator
import os
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

# kinetic discretisations of -Lap, all diagonal in the DST-I sine modes
KINETICS = ("fd", "spectral")
# stored parts of the box: all of it, or the positive octant of a mirror-even field
SYMMETRIES = ("none", "octant")

# `_slabs` cuts a block into slabs of z planes of about this many bytes
_BLOCK_BYTES = 1 << 19


def _slabs(m: int):
    """(planes, scratch) per slab of the m planes of m^2 values of a block, each slab about _BLOCK_BYTES.

    One scratch array serves every slab; each yields a view of it with
    the slab's shape.
    """
    width = max(1, _BLOCK_BYTES // (8 * m * m))
    scratch = np.empty((min(width, m), m, m))
    for z in range(0, m, width):
        sl = slice(z, min(z + width, m))
        yield sl, scratch[: sl.stop - z]


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
    kinetic : str
        The -Lap of fields on this grid, one of the `KINETICS`.
    symmetry : str
        One of the `SYMMETRIES`: "none" stores every node of the box,
        "octant" the m = n/2 nodes per axis of its positive octant, for
        fields that equal their mirror images in x, y and z.  The box's L,
        n and h stay; `m` and `axis` are the stored nodes', and `weight`
        is the quadrature weight of one stored node.
    """

    L: float
    n: int
    kinetic: str = "fd"
    symmetry: str = "none"

    def __post_init__(self) -> None:
        if not 0 < self.L < np.inf:
            raise ValueError(f"half-width must be positive and finite, got L={self.L}")
        try:
            object.__setattr__(self, "n", operator.index(self.n))
        except TypeError:
            raise ValueError(f"n must be an integer, got n={self.n!r}") from None
        if self.n < 8:
            raise ValueError(f"need at least 8 nodes per axis, got n={self.n}")
        if self.n % 2 != 0:
            raise ValueError(f"need even n, otherwise a node lands on the origin; got n={self.n}")
        if self.kinetic not in KINETICS:
            raise ValueError(f"kinetic must be one of {KINETICS}, got kinetic={self.kinetic!r}")
        if self.symmetry not in SYMMETRIES:
            raise ValueError(f"symmetry must be one of {SYMMETRIES}, got symmetry={self.symmetry!r}")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def octant(self) -> bool:
        return self.symmetry == "octant"

    @property
    def full(self) -> "GridSpec":
        """The grid of the whole box, with this grid's kinetic."""
        return replace(self, symmetry="none")

    @property
    def m(self) -> int:
        """Stored nodes per axis: n, or n/2 on the octant."""
        return self.n // 2 if self.octant else self.n

    @property
    def weight(self) -> float:
        """Quadrature weight of a stored node: h^3, or 8 h^3 on the octant, whose nodes stand for eight."""
        return (8.0 if self.octant else 1.0) * self.h**3

    @property
    def num_nodes(self) -> int:
        return self.m**3

    @cached_property
    def axis(self) -> np.ndarray:
        """Stored node coordinates along one axis (shared by x, y, z).

        On the octant, the upper half of the full axis, bit for bit.
        """
        j = np.arange(self.n - self.m, self.n, dtype=np.float64)
        c = -self.L + (j + 0.5) * self.h
        c.setflags(write=False)
        return c

    def coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Meshgrid coordinate arrays X, Y, Z with axes (x, y, z)."""
        return np.meshgrid(self.axis, self.axis, self.axis, indexing="ij")

    @property
    def radius(self) -> np.ndarray:
        """|x| at every stored node, shape (m, m, m), axes (x, y, z), x fastest in memory.

        Built on each use from the squared axis, so no m^3 array outlives
        its caller; the sums run in the order (x^2 + y^2) + z^2.  It is
        the transpose of a C-ordered [z, y, x] block, so a field sampled
        from it ravels to x-fastest storage without a copy.
        """
        a2 = self.axis * self.axis
        r = (a2 + a2[:, None]) + a2[:, None, None]
        return np.sqrt(r, out=r).T


@dataclass(frozen=True)
class ScalarField:
    """Real field sampled on the stored nodes of a GridSpec, flat storage in x-fastest order."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.ascontiguousarray(self.values, dtype=np.float64).reshape(-1)
        if v.size != self.grid.num_nodes:
            raise ValueError(
                f"field length {v.size} does not match grid with m^3={self.grid.num_nodes}"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must all be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def as3d(self) -> np.ndarray:
        """(m, m, m) view with axes (x, y, z); x is the fastest flat index."""
        m = self.grid.m
        return self.values.reshape((m, m, m), order="F")

    @property
    def mirror_even(self) -> bool:
        """Whether the values equal their mirror images in x, y and z; always so on the octant."""
        if self.grid.octant:
            return True
        a = self.as3d
        return all(np.array_equal(a, np.flip(a, axis)) for axis in range(3))

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

    def on(self, grid: GridSpec, what: str = "field") -> "ScalarField":
        """These node values on `grid`, which must have this field's box (L, n); the kinetic is grid's.

        A full-box field goes onto an octant grid as its positive octant,
        and only when it is `mirror_even`; an octant field goes onto a
        full grid as its mirror-even extension.
        """
        g = self.grid
        if (g.L, g.n) != (grid.L, grid.n):
            raise ValueError(
                f"{what} box (L={g.L}, n={g.n}) does not match the run grid (L={grid.L}, n={grid.n})"
            )
        if g.symmetry == grid.symmetry:
            return self if g == grid else ScalarField(grid, self.values)
        if grid.octant:
            if not self.mirror_even:
                raise ValueError(f"{what} does not equal its mirror images in x, y and z, so the octant cannot hold it")
            k = g.n // 2
            return ScalarField.from_3d(grid, self.as3d[k:, k:, k:])
        return ScalarField.from_3d(grid, _unfolded(self))


def _unfolded(u: ScalarField) -> np.ndarray:
    """The mirror-even extension of an octant field: a new F-ordered (n, n, n) array, axes (x, y, z).

    Full index j holds octant index |j - (n - 1)/2| - 1/2, so each of the
    eight blocks of the box is the stored block reversed along the axes
    on which it lies below the centre, copied straight into place.
    """
    a, m = u.as3d, u.grid.m
    out = np.empty((2 * m,) * 3, order="F")
    halves = ((slice(None, m), slice(None, None, -1)), (slice(m, None), slice(None)))
    for (ox, ix), (oy, iy), (oz, iz) in itertools.product(halves, repeat=3):
        out[ox, oy, oz] = a[ix, iy, iz]
    return out


@lru_cache(maxsize=16)
def dirichlet_eigenvalues(m: int, h: float, kinetic: str = "fd") -> np.ndarray:
    """The m eigenvalues of -Lap along one axis of an m^3 block of spacing h with zero ghosts beyond it.

    The DST-I sine modes diagonalize both variants: "fd" (the 7-point
    Laplacian) has (4/h^2) sin^2(pi k / (2(m+1))) per axis, "spectral" the
    exact (pi k / ((m+1) h))^2, k = 1..m.  The eigenvalue of the mode
    (k_x, k_y, k_z) is the sum of its three axes' values, which
    `in_sine_modes` forms as it needs it.  Cached and read-only.
    """
    k = np.arange(1, m + 1)
    if kinetic == "fd":
        lam = (4.0 / h**2) * np.sin(np.pi * k / (2.0 * (m + 1))) ** 2
    elif kinetic == "spectral":
        lam = (np.pi * k / ((m + 1) * h)) ** 2
    else:
        raise ValueError(f"unknown kinetic variant {kinetic!r}; options: {KINETICS}")
    lam.setflags(write=False)
    return lam


@lru_cache(maxsize=8)
def _sine_matrix(m: int) -> np.ndarray:
    """S_jk = 2 sin(pi j k / (m + 1)), j, k = 1..m; cached and read-only."""
    k = np.arange(1, m + 1)
    s = 2.0 * np.sin(np.pi * np.outer(k, k) / (m + 1))
    s.setflags(write=False)
    return s


@lru_cache(maxsize=8)
def _octant_sine_matrix(m: int, inverse: bool) -> tuple[np.ndarray, np.ndarray]:
    """P and P^T of the octant transform: P = 2S forwards, S^T inverse (unscaled).

    S_il = 2 sin(pi (2l + 1)(m + 1 + i) / (n + 1)), n = 2m: row i is the
    stored node m + i of an n-node axis (0-based), column l the odd mode
    k = 2l + 1.  A mirror-even axis has no even-mode coefficient, and its
    odd ones are 2 sum_i S_il a_i, since the node and its mirror image
    carry equal terms; S S^T = (n + 1) I, so S^T scaled by 1/(2(n + 1))
    inverts.  Cached, contiguous and read-only.
    """
    n = 2 * m
    s = 2.0 * np.sin(np.pi * np.outer(np.arange(m + 1, n + 1), np.arange(1, n, 2)) / (n + 1))
    p = s.T if inverse else 2.0 * s
    out = np.ascontiguousarray(p), np.ascontiguousarray(p.T)
    for a in out:
        a.setflags(write=False)
    return out


def sine_transform(
    a: np.ndarray, inverse: bool = False, overwrite: bool = False, octant: bool = False
) -> np.ndarray:
    """Unnormalised 3-D DST-I of an (m, m, m) block, scipy.fft.dstn(a, type=1).

    Runs as three products with a one-axis matrix P, out_l = sum_i a_i P_il
    along each axis, each as m slab-by-slab products.  On the full box P
    is the sine matrix S of `_sine_matrix`, symmetric with S S = 2(m + 1) I,
    so `inverse=True` (idstn) is the same three products scaled by
    (2(m + 1))^-3.  With `octant` the block is the positive octant of a
    mirror-even field on an n = 2m box, and the transform gives the odd
    modes k = 1, 3, ..., n - 1 of its full DST-I, to rounding: P is
    `_octant_sine_matrix`, and the inverse is scaled by (2(n + 1))^-3.
    The block is read as a C-ordered [k, j, i] array (an F-ordered one
    through its transpose, which is how x-fastest field storage comes
    in), where the three products need no transpose or copy; the result
    has the input's memory order.  The transform is the same along every
    axis, so the axis order of the block does not matter.

    The products run in two passes: t[k] = P^T (c[k] P) for every slab k,
    then, once all of t is formed, out[:, j] = P^T t[:, j] for every j.
    With `overwrite` the first pass writes t over the block it has read,
    whose values are then lost, instead of into a new array.
    """
    m = a.shape[0]
    if octant:
        p, pt = _octant_sine_matrix(m, inverse)
        size = 2 * m
    else:
        p = pt = _sine_matrix(m)
        size = m
    flip = a.flags.f_contiguous and not a.flags.c_contiguous
    c = np.ascontiguousarray(a.T if flip else a)
    t = c if overwrite and c.flags.writeable else np.empty_like(c)
    out = np.empty_like(c)
    # out holds the slabs' first products until the second pass overwrites it
    np.matmul(c, p, out=out)
    np.matmul(pt, out, out=t)
    np.matmul(pt, t.transpose(1, 0, 2), out=out.transpose(1, 0, 2))
    if inverse:
        out *= 1.0 / (2.0 * (size + 1)) ** 3
    return out.T if flip else out


def minus_laplacian(u: ScalarField) -> ScalarField:
    """-Lap u with a zero ghost layer, in the kinetic of u's grid.

    "fd" is the 7-point stencil, "spectral" the DST-I operator with the
    exact eigenvalue of each sine mode; both have the sine modes as
    eigenvectors and sums of `dirichlet_eigenvalues` as eigenvalues.  The
    stencil adds each neighbour as one contiguous shift of the flat
    values.  On the octant the neighbour beyond a centre face is the
    node's mirror image, whose value is the node's own (a mirror ghost);
    beyond an outer face it is a zero ghost.
    """
    g = u.grid
    if g.kinetic == "fd":
        m, a = g.m, u.values
        plane = m * m
        out = np.empty(a.size)
        o3 = out.reshape((m, m, m), order="F")
        a3 = a.reshape((m, m, m), order="F")
        # the six neighbours summed in place, in the order x+, x-, y+, y-, z+, z-;
        # the nodes where a shift wraps to the next row or plane keep the values
        # they had before it, plus the node's own on the octant's centre faces
        out[:-1] = a[1:]
        o3[-1] = 0.0
        kept = o3[0].copy()
        out[1:] += a[:-1]
        o3[0] = kept
        if g.octant:
            o3[0] += a3[0]
        kept = o3[:, -1].copy()
        out[:-m] += a[m:]
        o3[:, -1] = kept
        kept = o3[:, 0].copy()
        out[m:] += a[:-m]
        o3[:, 0] = kept
        if g.octant:
            o3[:, 0] += a3[:, 0]
        out[:-plane] += a[plane:]
        out[plane:] += a[:-plane]
        if g.octant:
            out[:plane] += a[:plane]
        out -= 6.0 * a
        out /= -(g.h**2)
        return ScalarField(g, out)
    lam = dirichlet_eigenvalues(g.n, g.h, g.kinetic)
    return ScalarField.from_3d(g, in_sine_modes(u.as3d, lam, np.multiply, octant=g.octant))


def in_sine_modes(
    a: np.ndarray, lam: np.ndarray, op, shift: float = 0.0, octant: bool = False
) -> np.ndarray:
    """idst(op(dst(a), table)) of an F-ordered (m, m, m) block, as an F-ordered block.

    The table entry of the mode (i, j, k) is (lam[i] + lam[j]) + lam[k],
    plus `shift` in a step of its own, with lam the one-axis
    `dirichlet_eigenvalues`; `op` is np.multiply (apply the operator) or
    np.divide (invert it).  With `octant` the block is the positive
    octant of a mirror-even field and lam the table of its whole axis of
    2m nodes, whose odd modes k = 1, 3, ... (lam[::2]) the transform keeps
    (`sine_transform`).  op runs in place on the coefficients, whose
    entries it forms slab by slab in a scratch of about `_BLOCK_BYTES`
    (`_slabs`), so no m^3 table is built.  The inverse transform works in
    the coefficients' memory.
    """
    m = a.shape[0]
    if octant:
        lam = lam[::2]
    coeff = sine_transform(np.asfortranarray(a), octant=octant)
    # F-ordered, so its transpose is the C-ordered [k, j, i] view
    planes = coeff.T
    lam_ji = np.add.outer(lam, lam)
    for sl, t in _slabs(m):
        np.add(lam_ji, lam[sl, None, None], out=t)
        if shift:
            t += shift
        op(planes[sl], t, out=planes[sl])
    del t  # the last slab's view would keep the scratch alive through the inverse
    return sine_transform(coeff, inverse=True, overwrite=True, octant=octant)


def boundary_mass_fraction(u: ScalarField) -> float:
    """Fraction of the mass integral u^2 carried by the outermost node layer.

    A small share says the box truncation is benign.  Each solve reports it
    (`GroundStateResult.boundary_mass`, `summary.csv`); no run gates on it.
    An octant field is measured on the full box, as `write_field` dumps it,
    and its unfolded copy is squared in place.
    """
    if u.grid.octant:
        q = _unfolded(u)
        np.square(q, out=q)
    else:
        q = np.square(u.as3d)
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
    """Dump a field: ASCII header then raw little-endian float64, x-fastest.

    An octant field is dumped on the full box, as its mirror-even extension.
    """
    g = u.grid
    values = _unfolded(u).ravel(order="F") if g.octant else u.values
    header = f"SPGS1 n={g.n} L={g.L!r} staggered=1\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(memoryview(values.astype("<f8", copy=False)))


def read_field(path: str | Path) -> ScalarField:
    """Read a field written by `write_field` (bit-exact round trip).

    The file must hold exactly the header and the 8 n^3 payload bytes its
    n announces; anything else is a ValueError, as is a bad header.
    """
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").strip()
        parts = header.split()
        if len(parts) != 4 or parts[0] != "SPGS1" or not all("=" in p for p in parts[1:]):
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
        try:
            L, n = float(fields["L"]), int(fields["n"])
        except ValueError:
            raise ValueError(f"not a field dump: bad header {header!r}") from None
        grid = GridSpec(L=L, n=n)
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != 8 * grid.num_nodes:
            raise ValueError(
                f"field dump {header!r}: expected {8 * grid.num_nodes} payload bytes, found {payload}"
            )
        data = np.frombuffer(fh.read(payload), dtype="<f8")
    return ScalarField(grid, data)
