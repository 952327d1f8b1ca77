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
little-endian IEEE float64 values, x-fastest.  Dumps of the retired
nodal layout, headed ``staggered=0``, are refused.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

# kinetic discretisations of -Lap, all diagonal in the DST-I sine modes
KINETICS = ("fd", "spectral")

# `_halves` does not split a pass over at most this many bytes: a 3-D field
# of n <= 40 or a radial mesh of n_r <= 65,536 stays on the caller's thread,
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
    """

    L: float
    n: int
    kinetic: str = "fd"

    def __post_init__(self) -> None:
        if not 0 < self.L < np.inf:
            raise ValueError(f"half-width must be positive and finite, got L={self.L}")
        if self.n < 8:
            raise ValueError(f"need at least 8 nodes per axis, got n={self.n}")
        if self.n % 2 != 0:
            raise ValueError(f"need even n, otherwise a node lands on the origin; got n={self.n}")
        if self.kinetic not in KINETICS:
            raise ValueError(f"kinetic must be one of {KINETICS}, got kinetic={self.kinetic!r}")

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

    def on(self, grid: GridSpec, what: str = "field") -> "ScalarField":
        """These node values on `grid`, which must have this field's box (L, n); the kinetic is grid's."""
        g = self.grid
        if (g.L, g.n) != (grid.L, grid.n):
            raise ValueError(
                f"{what} box (L={g.L}, n={g.n}) does not match the run grid (L={grid.L}, n={grid.n})"
            )
        return self if g == grid else ScalarField(grid, self.values)


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


def sine_transform(a: np.ndarray, inverse: bool = False, overwrite: bool = False) -> np.ndarray:
    """Unnormalised 3-D DST-I of an (m, m, m) block, scipy.fft.dstn(a, type=1).

    Runs as three products with the sine matrix S of `_sine_matrix`, one
    per axis, each as m slab-by-slab products.  S is symmetric and
    S S = 2(m + 1) I, so `inverse=True` (idstn) is the same three products
    scaled by (2(m + 1))^-3.  The block is read as a C-ordered [k, j, i]
    array (an F-ordered one through its transpose, which is how x-fastest
    field storage comes in), where the three products need no transpose
    or copy; the result has the input's memory order.  The transform is
    the same along every axis, so the axis order of the block does not
    matter.

    The products run in two passes: t[k] = S (c[k] S) for every slab k,
    then, once all of t is formed, out[:, j] = S t[:, j] for every j.
    Each pass runs on the two halves of its m slabs of m^2 values
    (`_on_halves`).  Each slab is one product, computed whole by one
    half, so the result does not depend on the split.  With `overwrite` the first pass writes t over the block it
    has read, whose values are then lost, instead of into a new array.
    """
    m = a.shape[0]
    s = _sine_matrix(m)
    flip = a.flags.f_contiguous and not a.flags.c_contiguous
    c = np.ascontiguousarray(a.T if flip else a)
    t = c if overwrite and c.flags.writeable else np.empty_like(c)
    out = np.empty_like(c)
    scale = 1.0 / (2.0 * (m + 1)) ** 3

    def rows(sl):
        # out holds the slabs' first products until the second pass overwrites it
        np.matmul(c[sl], s, out=out[sl])
        np.matmul(s, out[sl], out=t[sl])

    def columns(sl):
        dst = out[:, sl]
        np.matmul(s, t[:, sl].transpose(1, 0, 2), out=dst.transpose(1, 0, 2))
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
    as in one pass.
    """
    g = u.grid
    if g.kinetic == "fd":
        n, a = g.n, u.values
        plane = n * n
        out = np.empty(a.size)
        out3 = out.reshape((n, n, n), order="F")

        def planes(sl):
            # the six neighbours summed in place, in the order x+, x-, y+, y-, z+, z-,
            # each as one shift of the half's flat values; a neighbour beyond the box
            # is a zero ghost, so the nodes where a shift wraps to the next row or
            # plane keep the values they had before it
            lo, hi = sl.start * plane, sl.stop * plane
            b, o, o3 = a[lo:hi], out[lo:hi], out3[:, :, sl]
            o[:-1] = b[1:]
            o3[-1] = 0.0
            kept = o3[0].copy()
            o[1:] += b[:-1]
            o3[0] = kept
            kept = o3[:, -1].copy()
            o[:-n] += b[n:]
            o3[:, -1] = kept
            kept = o3[:, 0].copy()
            o[n:] += b[:-n]
            o3[:, 0] = kept
            top = min(hi, a.size - plane)
            out[lo:top] += a[lo + plane : top + plane]
            bottom = max(lo, plane)
            out[bottom:hi] += a[bottom - plane : hi - plane]
            o -= 6.0 * b
            o /= -(g.h**2)

        _on_halves(planes, n, plane)
        return ScalarField(g, out)
    lam = dirichlet_eigenvalues(g.n, g.h, g.kinetic)
    return ScalarField.from_3d(g, in_sine_modes(u.as3d, lam, np.multiply))


def in_sine_modes(a: np.ndarray, lam: np.ndarray, op, shift: float = 0.0) -> np.ndarray:
    """idst(op(dst(a), table)) of an F-ordered (m, m, m) block, as an F-ordered block.

    The table entry of the mode (i, j, k) is (lam[i] + lam[j]) + lam[k],
    plus `shift` in a step of its own, with lam the one-axis
    `dirichlet_eigenvalues`; `op` is np.multiply (apply the operator) or
    np.divide (invert it).  op runs in place on the coefficients, in
    halves of the k planes (`_on_halves`); each half forms its entries
    slab by slab in a scratch of about `_BLOCK_BYTES`, so no m^3 table is
    built.  The inverse transform works in the coefficients' memory.
    """
    m = a.shape[0]
    coeff = sine_transform(np.asfortranarray(a))
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
    return sine_transform(coeff, inverse=True, overwrite=True)


def boundary_mass_fraction(u: ScalarField) -> float:
    """Fraction of the mass integral u^2 carried by the outermost node layer.

    A small share says the box truncation is benign.  Each solve reports it
    (`GroundStateResult.boundary_mass`, `summary.csv`); no run gates on it.
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
