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
`ScalarField.on` folds a mirror-even full-box field onto the octant
(and refuses any other) and unfolds an octant field; `write_field` and
`boundary_mass_fraction` see the unfolded field.  By Palais' principle
of symmetric criticality a critical point found in the mirror-even
subspace is one of the full action, but the octant's least level is the
least over mirror-even states only.

Every n^3 pass of the package runs on two cores through one primitive,
`_on_halves(task, size, unit)`.  `_halves` cuts the pass's `size` items
of `unit` float64 values each (a flat array's values, or a block's
planes) into two halves above `_BLOCK_BYTES`, and the calling thread
runs task on the first half while one helper thread runs it on the
second.  Split this way are:

- here, each pass of `sine_transform` and the stencil of
  `minus_laplacian`, by planes, and the table op of `in_sine_modes`;
- in `poisson`, the four plane passes of the screened solve around its
  sine solve;
- in `functional`, the sums of the energies and the residual field and
  its norm;
- in `minimize`, the descent's field updates and pairings
  (`_scaled_add`, `_sum_of_products`), on the box and on the radial mesh;
- in `radial`, the quadratures and residual of a profile.

numpy's matmul, ufuncs, sums and einsum release the GIL, so the halves
overlap, and since no half reads the other's output the result is bit
for bit the one thread's.  Reductions of n^3 data use np.sum or
np.einsum, never np.dot, np.vdot or @ with a vector, because a flat sum
splits at the point where numpy's pairwise summation adds its two
halves, so the two partial sums added are the one-pass sum; a BLAS
dot's rounding follows its own blocking, not the split.  Nor would BLAS
gain a core: importing spgs starts OpenBLAS with one thread (see the
package docstring), and the second core is the helper's.  A
process keeps one helper, a daemon thread started on the first split,
never at import, and only when the process may run on at least two
CPUs; otherwise the caller runs both halves in turn.  The caller hands
the helper its half through a pair of locks (`_Helper`), with no queue
and no future.  A forked child drops its parent's helper, whose thread
it does not inherit, and starts its own when it first splits.

Dump format (bit-exact round trip): one ASCII header line
``SPGS1 n=<n> L=<decimal> staggered=1\\n`` followed by n^3
little-endian IEEE float64 values, x-fastest, always of the full box.
Dumps of the retired nodal layout, headed ``staggered=0``, are refused.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

# kinetic discretisations of -Lap, all diagonal in the DST-I sine modes
KINETICS = ("fd", "spectral")
# stored parts of the box: all of it, or the positive octant of a mirror-even field
SYMMETRIES = ("none", "octant")

# `_halves` does not split a pass over at most this many bytes: a 3-D field
# of at most 40 stored nodes per axis (n <= 40, or n <= 80 on the octant) or
# a radial mesh of n_r <= 65,536 stays on the caller's thread,
# where handing half of a cache-sized pass to the helper costs more than the
# second core saves.  `_slabs` cuts a half into slabs of z planes of about
# this size, for `poisson`'s scratch passes and `in_sine_modes`'s eigenvalues.
_BLOCK_BYTES = 1 << 19


class _Helper:
    """One daemon thread that runs the second half of each split.

    The hand-off is two locks, each held while its side has nothing to
    do: the caller releases `go` once the task and its slice are in
    place, the thread releases `done` once the result is.  `owner` is
    held by the caller whose split is in flight, so a second thread that
    splits meanwhile runs both of its halves itself.
    """

    def __init__(self) -> None:
        self.go, self.done, self.owner = threading.Lock(), threading.Lock(), threading.Lock()
        self.go.acquire()
        self.done.acquire()
        self.task = self.part = self.result = self.error = None
        self.thread = threading.Thread(target=self._serve, name="spgs-helper", daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        while True:
            self.go.acquire()
            task, part = self.task, self.part
            self.task = self.part = None
            if task is None:
                return
            try:
                self.result = task(part)
            except BaseException as exc:  # re-raised in the caller by `run`
                self.error = exc
            # hold no reference to the task, and so to its arrays, until the next split
            task = part = None
            self.done.release()

    def run(self, task, first: slice, second: slice) -> list:
        """[task(first), task(second)], the second on the thread unless another split holds it."""
        if not self.owner.acquire(blocking=False):
            return [task(first), task(second)]
        try:
            self.task, self.part = task, second
            self.go.release()
            try:
                out = task(first)
            finally:
                self.done.acquire()
                other, error = self.result, self.error
                self.result = self.error = None
        finally:
            self.owner.release()
        if error is not None:
            raise error
        return [out, other]

    def shutdown(self) -> None:
        """Stop and join the thread; later splits given this helper run both halves on the caller."""
        if self.thread.is_alive():
            self.owner.acquire()
            self.go.release()
            self.thread.join()


# The process's helper, started by its first split and dropped in a forked
# child, which does not inherit the thread.
_helper: _Helper | None = None
_helper_lock = threading.Lock()


def _drop_helper() -> None:
    global _helper, _helper_lock
    _helper = None
    _helper_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helper)


def _started_helper() -> _Helper | None:
    """The helper, started on first use; None when the process may use one CPU."""
    global _helper
    with _helper_lock:
        if _helper is None:
            affinity = getattr(os, "sched_getaffinity", None)
            if (len(affinity(0)) if affinity else os.cpu_count() or 1) >= 2:
                _helper = _Helper()
        return _helper


def _halves(size: int, unit: int = 1) -> list[slice]:
    """range(size) as one slice, or as two above _BLOCK_BYTES, for items of `unit` float64 values.

    The cut is the item nearest the point h = half - half % 8, half =
    size * unit // 2, where numpy's pairwise summation of size * unit
    values adds the sums of its two halves, each taken the same way.  So
    for a contiguous flat float64 array a (unit 1), np.sum(a[:h]) +
    np.sum(a[h:]) is np.sum(a) bit for bit, and a block of m planes of
    m^2 values (unit m^2, m even) cuts at its middle plane
    (tests/test_grid.py pins both for every size split here).
    """
    if 8 * size * unit <= _BLOCK_BYTES:
        return [slice(0, size)]
    half = size * unit // 2
    mid = round((half - half % 8) / unit)
    return [slice(0, mid), slice(mid, size)]


def _on_halves(task, size: int, unit: int = 1) -> list:
    """[task(sl) for sl in _halves(size, unit)]: the caller runs the first half, the helper the second.

    Every item must be independent of the others, so the halves give the
    same result together as in turn.  Without a helper, or while it
    serves another thread's split, the caller runs both halves, in turn;
    so does a split made inside a task.  An exception raised in the
    helper's half is raised here once the caller's half is done.
    """
    first, *rest = _halves(size, unit)
    if not rest:
        return [task(first)]
    helper = _helper or _started_helper()
    if helper is None:
        return [task(first), task(rest[0])]
    return helper.run(task, first, rest[0])


def _slabs(half: slice, m: int):
    """(planes, scratch) per slab of the half's planes of m^2 values, each slab about _BLOCK_BYTES.

    One scratch array serves every slab; each yields a view of it with
    the slab's shape.
    """
    width = max(1, _BLOCK_BYTES // (8 * m * m))
    scratch = np.empty((min(width, half.stop - half.start), m, m))
    for z in range(half.start, half.stop, width):
        sl = slice(z, min(z + width, half.stop))
        yield sl, scratch[: sl.stop - z]


def _added(parts: list) -> list[float]:
    """Sums from the halves' partial sums: position k of each part, added in order.

    With the flat halves of `_halves` that is the one-pass np.sum at each position.
    """
    return [float(sum(column[1:], column[0])) for column in zip(*parts)]


def _scaled_add(a: float, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """a * x + y (a * x without y) of flat float64 arrays, as a new array, in halves.

    Each node rounds as in the one-pass expression, and y - a * x is
    _scaled_add(-a, x, y) bit for bit, since negation is exact.
    """
    out = np.empty(x.size)

    def share(sl):
        o = out[sl]
        np.multiply(x[sl], a, out=o)
        if y is not None:
            o += y[sl]

    _on_halves(share, x.size)
    return out


def _sum_of_products(a: np.ndarray, b: np.ndarray, weight: np.ndarray | None = None) -> float:
    """np.sum(a * b) (np.sum(weight * a * b)) of flat arrays, in halves.

    An elementwise sum, not a BLAS dot, whose rounding depends on the
    thread count.
    """

    products = np.empty(a.size)

    def share(sl):
        t = products[sl]
        if weight is None:
            np.multiply(a[sl], b[sl], out=t)
        else:
            np.multiply(weight[sl], a[sl], out=t)
            t *= b[sl]
        return (np.sum(t),)

    return _added(_on_halves(share, a.size))[0]


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
        """|x| at every stored node, shape (m, m, m), axes (x, y, z).

        Built on each use from the squared axis, so no m^3 array outlives
        its caller; the sums run in the order x^2 + y^2 + z^2.
        """
        a2 = self.axis * self.axis
        r = (a2[:, None, None] + a2[:, None]) + a2
        return np.sqrt(r, out=r)


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
        # full index j holds octant index |j - (n - 1)/2| - 1/2
        mirror = np.concatenate([np.arange(g.m)[::-1], np.arange(g.m)])
        return ScalarField.from_3d(grid, self.as3d[np.ix_(mirror, mirror, mirror)])


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
    Each pass runs on the two halves of its m slabs of m^2 values
    (`_on_halves`).  Each slab is one product, computed whole by one
    half, so the result does not depend on the split.  With `overwrite` the first pass writes t over the block it
    has read, whose values are then lost, instead of into a new array.
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
    scale = 1.0 / (2.0 * (size + 1)) ** 3

    def rows(sl):
        # out holds the slabs' first products until the second pass overwrites it
        np.matmul(c[sl], p, out=out[sl])
        np.matmul(pt, out[sl], out=t[sl])

    def columns(sl):
        dst = out[:, sl]
        np.matmul(pt, t[:, sl].transpose(1, 0, 2), out=dst.transpose(1, 0, 2))
        if inverse:
            dst *= scale

    _on_halves(rows, m, m * m)
    _on_halves(columns, m, m * m)
    return out.T if flip else out


def minus_laplacian(u: ScalarField) -> ScalarField:
    """-Lap u with a zero ghost layer, in the kinetic of u's grid.

    "fd" is the 7-point stencil, "spectral" the DST-I operator with the
    exact eigenvalue of each sine mode; both have the sine modes as
    eigenvectors and sums of `dirichlet_eigenvalues` as eigenvalues.  The
    stencil runs on the two halves of the z planes (`_on_halves`); each
    half adds each neighbour as one contiguous shift of its flat values,
    writes only its own planes and reads the neighbours from the
    unchanged input, so every node sums the same terms in the same order
    as in one pass.  On the octant the neighbour beyond a centre face is
    the node's mirror image, whose value is the node's own (a mirror
    ghost); beyond an outer face it is a zero ghost.
    """
    g = u.grid
    if g.kinetic == "fd":
        m, a = g.m, u.values
        plane = m * m
        out = np.empty(a.size)
        out3 = out.reshape((m, m, m), order="F")
        a3 = a.reshape((m, m, m), order="F")

        def planes(sl):
            # the six neighbours summed in place, in the order x+, x-, y+, y-, z+, z-,
            # each as one shift of the half's flat values; the nodes where a shift
            # wraps to the next row or plane keep the values they had before it,
            # plus the node's own on the octant's centre faces
            lo, hi = sl.start * plane, sl.stop * plane
            b, o, o3 = a[lo:hi], out[lo:hi], out3[:, :, sl]
            o[:-1] = b[1:]
            o3[-1] = 0.0
            kept = o3[0].copy()
            o[1:] += b[:-1]
            o3[0] = kept
            if g.octant:
                o3[0] += a3[0, :, sl]
            kept = o3[:, -1].copy()
            o[:-m] += b[m:]
            o3[:, -1] = kept
            kept = o3[:, 0].copy()
            o[m:] += b[:-m]
            o3[:, 0] = kept
            if g.octant:
                o3[:, 0] += a3[:, 0, sl]
            top = min(hi, a.size - plane)
            out[lo:top] += a[lo + plane : top + plane]
            bottom = max(lo, plane)
            out[bottom:hi] += a[bottom - plane : hi - plane]
            if g.octant and lo == 0:
                out[:plane] += a[:plane]
            o -= 6.0 * b
            o /= -(g.h**2)

        _on_halves(planes, m, plane)
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
    (`sine_transform`).  op runs in place on the coefficients, in
    halves of the k planes (`_on_halves`); each half forms its entries
    slab by slab in a scratch of about `_BLOCK_BYTES`, so no m^3 table is
    built.  The inverse transform works in the coefficients' memory.
    """
    m = a.shape[0]
    if octant:
        lam = lam[::2]
    coeff = sine_transform(np.asfortranarray(a), octant=octant)
    # F-ordered, so its transpose is the C-ordered [k, j, i] view
    planes = coeff.T
    lam_ji = np.add.outer(lam, lam)

    def share(half):
        for sl, t in _slabs(half, m):
            np.add(lam_ji, lam[sl, None, None], out=t)
            if shift:
                t += shift
            op(planes[sl], t, out=planes[sl])

    _on_halves(share, m, m * m)
    return sine_transform(coeff, inverse=True, overwrite=True, octant=octant)


def boundary_mass_fraction(u: ScalarField) -> float:
    """Fraction of the mass integral u^2 carried by the outermost node layer.

    A small share says the box truncation is benign.  Each solve reports it
    (`GroundStateResult.boundary_mass`, `summary.csv`); no run gates on it.
    An octant field is measured on the full box, as `write_field` dumps it.
    """
    q = u.on(u.grid.full).as3d ** 2
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
    u = u.on(u.grid.full)
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
