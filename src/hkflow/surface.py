"""Discrete extrinsic geometry of doubly periodic immersed surfaces.

The parameter domain is always [0, 2pi)^2 sampled on a uniform nu x nv
grid (_param_axes) with periodic index arithmetic.  Derivatives are second
order central differences taken on shortest-image displacements, so torus
seams never enter the stencils.

The scenarios are rows of one table, _SCENARIOS, whose coordinates (and
custom-expression's) all go through one expression walker, _eval_expr; a
parameter the row does not name or not > 0, and a coordinate not finite at
some node, are refused by name.

Metric convention: the diagonal entries g_uu, g_vv are averaged squared
EDGE lengths, (|F(i+1)-F(i)|^2 + |F(i)-F(i-1)|^2) / (2 h^2), while g_uv
comes from the central tangents.  The edge form shares its Fourier symbol
with the central second difference, which makes H exact on products of
circles and keeps the discrete integration by parts of the Laplacian
clean; a pure central-difference metric loses an O(h^2) factor between
the two and visibly biases |H|^2.

The normal frame (e3, e4) = (J_b e1, J_b e2) is adapted to the tangent
phase a and its companion b = kernel.phi_field(a), positive by construction.

The one surface Laplacian is laplacian_matrix: a nine-point stencil filled
from the edge fluxes into a CSR pattern cached per grid size.  It imports
scipy.sparse at its first call, not with this module: sampling, geometry
and snapshots need numpy alone.

Layout: the geometry is computed on component planes, a contiguous
(4, nu, nv) array per vector field and (2, 2, nu, nv) per metric-like
tensor, so an inner product is the plane sum x0 y0 + x1 y1 + x2 y2 + x3 y3
and J_d acts by reindexing planes.  GeometryCache exposes every field in
the (nu, nv, 4) / (nu, nv, 2, 2) layout as a read-only transposed view of
those planes; the phase fields of the phase module follow the same layout.
"""

import ast
import base64
import functools
import json
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError, _read_text, _write_text
from .kernel import _TRIPLE, AmbientSpace, _apply_phase, _companion, _dot, _tangent_phase

DET_FLOOR_REL = 1e-10
MIN_GRID = 4              # fewest nodes per parameter axis, sampled or loaded
SNAPSHOT_VERSION = 2       # written; version 1 (positions as a JSON list) is still read

# name -> (parameter defaults, the noun of "<name> needs <noun>" that refuses a
# parameter not > 0, four coordinates, four periods or None in R^4); the
# expressions read u, v, pi and the parameters.  custom-expression takes its
# coordinates and periods from its spec's exprs and periods
_SCENARIOS = {
    "flat-plane-torus": ({"Lu": 2 * np.pi, "Lv": 2 * np.pi}, "positive periods",
                         ("Lu*u/(2*pi)", "Lv*v/(2*pi)", "0*u", "0*u"),
                         ("Lu", "Lv", "2*pi", "2*pi")),
    "clifford": ({"R": 1.0, "r": 1.0}, "positive radii",
                 ("R*cos(u)", "R*sin(u)", "r*cos(v)", "r*sin(v)"), None),
    "perturbed-complex-torus": ({"eps": 0.05}, "eps > 0",
                                ("u", "v", "eps*sin(u)", "eps*sin(v)"), ("2*pi",) * 4),
    # divergence-free height pair, so the graph is exactly Lagrangian
    # for omega_{J3} = -dx0^dx3 + dx1^dx2
    "lagrangian-graph": ({"eps": 0.1}, "eps > 0",
                         ("u", "v", "eps*cos(u)*sin(v)", "-eps*sin(u)*cos(v)"), ("2*pi",) * 4),
    "custom-expression": ({}, None, None, None),
}
SCENARIO_NAMES = tuple(_SCENARIOS)
# the rows' float parameters, first seen first
SCENARIO_PARAMS = tuple(dict.fromkeys(key for row in _SCENARIOS.values() for key in row[0]))


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    nu: int
    nv: int
    params: dict = field(default_factory=dict)


def scenario(name, nu, nv, **params):
    return ScenarioSpec(name, int(nu), int(nv), params)


@dataclass
class SurfaceGrid:
    nu: int
    nv: int
    positions: np.ndarray          # (nu, nv, 4)
    ambient: AmbientSpace

    @property
    def hu(self):
        return 2.0 * np.pi / self.nu

    @property
    def hv(self):
        return 2.0 * np.pi / self.nv

    def param_axes(self):
        return _param_axes(self.nu, self.nv)


def _param_axes(nu, nv):
    """The (u, v) parameters of the nu x nv grid's nodes, each (nu, nv)."""
    return np.meshgrid(np.arange(nu) * (2.0 * np.pi / nu), np.arange(nv) * (2.0 * np.pi / nv),
                       indexing="ij")


_EXPR_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "sqrt": np.sqrt, "abs": np.abs,
}
_EXPR_BINOPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.Pow: operator.pow,
}
_EXPR_UNARYOPS = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _eval_node(node, names):
    """Walk a parsed expression, admitting only arithmetic on float
    literals, the grid variables and one-argument calls of _EXPR_FUNCS."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if isinstance(node, ast.UnaryOp) and type(node.op) in _EXPR_UNARYOPS:
        return _EXPR_UNARYOPS[type(node.op)](_eval_node(node.operand, names))
    if isinstance(node, ast.BinOp) and type(node.op) in _EXPR_BINOPS:
        left, right = _eval_node(node.left, names), _eval_node(node.right, names)
        out = _EXPR_BINOPS[type(node.op)](left, right)
        # Python's power of a negative float is complex, numpy's real power nan
        return np.nan if isinstance(out, complex) else out
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _EXPR_FUNCS
        and len(node.args) == 1
        and not node.keywords
    ):
        return _EXPR_FUNCS[node.func.id](_eval_node(node.args[0], names))
    what = f"name {node.id!r}" if isinstance(node, ast.Name) else type(node).__name__
    raise InputError(f"{what} is not allowed")


def _eval_expr(expr, names, shape):
    """expr on `names` through the _eval_node walker, a float64 array of `shape`;
    numpy's floating-point warnings are silenced, the caller judges non-finite values."""
    try:
        with np.errstate(all="ignore"):
            out = _eval_node(ast.parse(expr, mode="eval").body, names)
    except (
        InputError, SyntaxError, ValueError, ArithmeticError, RecursionError, MemoryError
    ) as exc:
        raise InputError(f"cannot evaluate expression {expr!r}: {exc}") from exc
    return np.broadcast_to(np.asarray(out, float), shape)


def build_immersion(spec):
    """Sample a _SCENARIOS row onto the periodic grid: its own parameters only,
    each > 0, and its four coordinates on _param_axes, each finite at every node."""
    if spec.nu < MIN_GRID or spec.nv < MIN_GRID:
        raise InputError(
            f"grid too small: nu={spec.nu}, nv={spec.nv}, need {MIN_GRID} x {MIN_GRID}"
        )
    if 9 * spec.nu * spec.nv > np.iinfo(np.int32).max:
        raise InputError(
            f"grid too large: nu={spec.nu}, nv={spec.nv}, the nine-point stencil's "
            "9 * nu * nv entries exceed int32 indexing"
        )
    if spec.name not in _SCENARIOS:
        raise InputError(f"unknown scenario {spec.name!r}")
    defaults, noun, coords, periods = _SCENARIOS[spec.name]
    stray = sorted(set(spec.params) - set(defaults if coords else ("exprs", "periods")))
    if stray:
        raise InputError(f"{spec.name} does not take {', '.join(stray)}")
    params = {key: float(spec.params.get(key, val)) for key, val in defaults.items()}
    if not all(val > 0 for val in params.values()):      # NaN fails too
        raise InputError(f"{spec.name} needs {noun}")
    u, v = _param_axes(spec.nu, spec.nv)
    names = dict(params, u=u, v=v, pi=np.pi)
    if coords is None:
        coords, periods = spec.params.get("exprs"), spec.params.get("periods")
        if not coords or len(coords) != 4:
            raise InputError("custom-expression needs exprs = 4 strings")
    elif periods:
        periods = [_eval_expr(expr, names, ()) for expr in periods]

    pos = np.empty((spec.nu, spec.nv, 4))
    for k, expr in enumerate(coords):
        pos[..., k] = _eval_expr(expr, names, u.shape)
        if not np.isfinite(pos[..., k]).all():
            ij = tuple(np.argwhere(~np.isfinite(pos[..., k]))[0].tolist())
            raise InputError(f"coordinate {k} {expr!r} of {spec.name!r} is not finite at node {ij}")
    ambient = AmbientSpace(tuple(periods) if periods else None)
    return SurfaceGrid(spec.nu, spec.nv, ambient.wrap(pos), ambient)


@dataclass
class GeometryCache:
    """Every array field is a read-only (nu, nv, ...) view of the component
    planes compute_geometry works on; index [..., k] reads a contiguous plane.

    A cache is a value: what depends on the geometry alone (ball volume
    reports, the metric spacing) is computed on the first call and kept
    in a private memo, so it describes grid.positions as they were then.
    dataclasses.replace builds a new cache with an empty memo.
    """

    grid: SurfaceGrid
    g: np.ndarray                # (nu, nv, 2, 2) induced metric
    ginv: np.ndarray
    sqrt_det_g: np.ndarray       # (nu, nv)
    f_u: np.ndarray              # central tangents, (nu, nv, 4)
    f_v: np.ndarray
    f_uu: np.ndarray             # second differences
    f_uv: np.ndarray
    f_vv: np.ndarray
    e1: np.ndarray               # ambient-orthonormal frame, (nu, nv, 4)
    e2: np.ndarray
    e3: np.ndarray
    e4: np.ndarray
    gs: np.ndarray               # (nu, nv, 2, 2) metric Gram-Schmidt rows:
                                 # e_i (metric sense) = gs[i, k] f_k
    h: np.ndarray                # (nu, nv, 2, 2, 2): [alpha, i, j] = <f_ij, e_{3+alpha}>
    H: np.ndarray                # (nu, nv, 4) mean curvature vector
    norm_H_sq: np.ndarray
    norm_A_sq: np.ndarray
    au: np.ndarray               # sqrt(g) g^uu averaged onto edge (i, i+1)
    av: np.ndarray               # sqrt(g) g^vv averaged onto edge (j, j+1)
    cuv: np.ndarray              # sqrt(g) g^uv at the nodes
    min_edge: float              # shortest ambient grid edge, stability proxy
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def hu(self):
        return self.grid.hu

    @property
    def hv(self):
        return self.grid.hv

    def node_area(self):
        return self.sqrt_det_g * self.hu * self.hv

    def _memoized(self, key, compute):
        """compute() on the first call with this key, the stored value after;
        an exception is never stored, so it is raised again on the next call."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]


def _shift(f, k, axis):
    """Periodic shift out[i] = f[(i - k) mod n] along one axis, a copy from
    two slices and one concatenate: data moves, no arithmetic, so it is exact."""
    k %= f.shape[axis]
    lead = (slice(None),) * (axis % f.ndim)
    return np.concatenate((f[lead + (slice(-k, None),)], f[lead + (slice(None, -k),)]), axis)


def _central(f, axis, h):
    """Periodic central difference of a grid field along one parameter axis."""
    return (_shift(f, -1, axis) - _shift(f, 1, axis)) / (2 * h)


def _lam_min(g):
    """Smaller eigenvalue of symmetric 2 x 2 planes g (2, 2, ...), free of cancellation.

    lam_max = (g11 + g22 + sqrt((g11 - g22)^2 + 4 g12^2)) / 2 adds two
    nonnegative terms for a positive metric, and lam_min = det / lam_max;
    0.5 (tr - sqrt(tr^2 - 4 det)) loses half the digits at an isotropic node.
    """
    a, b, c = g[0, 0], g[0, 1], g[1, 1]
    lam_max = 0.5 * (a + c + np.sqrt((a - c) ** 2 + 4 * b * b))
    return (a * c - b * b) / lam_max


def _cometric(ginv, xu, xv):
    """g^{ij} x_i x_j for a covector with parameter components (xu, xv)."""
    return ginv[..., 0, 0] * xu**2 + 2 * ginv[..., 0, 1] * xu * xv + ginv[..., 1, 1] * xv**2


def _node_major(planes):
    """View component planes (..., nu, nv) as a node field (nu, nv, ...)."""
    k = planes.ndim - 2
    return planes.transpose(k, k + 1, *range(k))


def _planes(fld, k=1):
    """View a node field (nu, nv, ...) with k component axes as planes (..., nu, nv)."""
    return fld.transpose(*range(2, 2 + k), 0, 1)


def _displacement(ambient, p, q):
    """Shortest-image q - p of two (4, nu, nv) plane stacks, as planes.

    AmbientSpace reads components off the last axis, so it gets the
    transposed views; the result keeps their memory layout.
    """
    return ambient.displacement(p.T, q.T).T


def _second_fundamental_form(f_uu, f_uv, f_vv, normals):
    """h[alpha, i, j] = <f_ij, n_alpha> on planes: (2, 2, 2, nu, nv)."""
    h = np.empty((2, 2, 2) + f_uu.shape[1:])
    for alpha, n in enumerate(normals):
        h[alpha, 0, 0] = _dot(f_uu, n)
        h[alpha, 0, 1] = h[alpha, 1, 0] = _dot(f_uv, n)
        h[alpha, 1, 1] = _dot(f_vv, n)
    return h


def compute_geometry(grid):
    """GeometryCache of a sampled surface.

    Computed on contiguous component planes, (4, nu, nv) for vectors and
    (2, 2, nu, nv) for metric-like tensors, so every inner product is a
    plane sum; the cache exposes each field as a (nu, nv, ...) view.
    """
    hu, hv = grid.hu, grid.hv
    p = np.ascontiguousarray(np.moveaxis(grid.positions, -1, 0))

    finite = np.isfinite(p).all(0)
    if not finite.all():
        ij = tuple(int(k) for k in np.unravel_index(np.argmin(finite), finite.shape))
        raise NumericalError(f"non-finite position at node {ij}: {grid.positions[ij]}")

    du_f = _displacement(grid.ambient, p, _shift(p, -1, 1))   # F(i+1,j) - F(i,j)
    dv_f = _displacement(grid.ambient, p, _shift(p, -1, 2))
    du_b = _shift(du_f, 1, 1)                    # F(i,j) - F(i-1,j)
    dv_b = _shift(dv_f, 1, 2)

    f_u = (du_f + du_b) / (2 * hu)
    f_v = (dv_f + dv_b) / (2 * hv)
    f_uu = (du_f - du_b) / hu**2
    f_vv = (dv_f - dv_b) / hv**2
    # cross derivative: central difference of the (seam-free) tangent field
    f_uv = _central(f_u, 2, hv)

    # squared forward edge lengths; a backward square is the shift of a forward one
    du_sq = _dot(du_f, du_f)
    dv_sq = _dot(dv_f, dv_f)
    g = np.empty((2, 2) + finite.shape)
    g[0, 0] = 0.5 * (du_sq + _shift(du_sq, 1, 0)) / hu**2
    g[1, 1] = 0.5 * (dv_sq + _shift(dv_sq, 1, 1)) / hv**2
    g[0, 1] = g[1, 0] = _dot(f_u, f_v)

    det = g[0, 0] * g[1, 1] - g[0, 1] ** 2
    floor = DET_FLOOR_REL * float(np.mean(det))
    if not np.min(det) > max(floor, 0.0):       # NaN fails too
        ij = tuple(int(k) for k in np.unravel_index(np.argmin(det), det.shape))
        raise NumericalError(
            f"metric-degenerate at node {ij}: det g = {np.min(det):.3e}"
        )

    ginv = np.empty_like(g)
    ginv[0, 0] = g[1, 1] / det
    ginv[1, 1] = g[0, 0] / det
    ginv[0, 1] = ginv[1, 0] = -g[0, 1] / det
    sqrt_det_g = np.sqrt(det)

    # ambient-orthonormal tangent pair; the det floor reads edge lengths, so f_u can vanish
    with np.errstate(divide="ignore", invalid="ignore"):
        e1 = f_u / np.sqrt(_dot(f_u, f_u))
        e2 = f_v - _dot(f_v, e1) * e1
        e2 /= np.sqrt(_dot(e2, e2))
    if not np.isfinite(e2).all():
        ij = tuple(int(k) for k in np.argwhere(~np.isfinite(e2).all(0))[0])
        raise NumericalError(
            f"tangent-degenerate at node {ij}: f_u = {f_u[:, ij[0], ij[1]]}, "
            f"f_v = {f_v[:, ij[0], ij[1]]}"
        )

    # metric Gram-Schmidt rows for converting parameter indices to the
    # orthonormal frame; uses the edge metric, not ambient dots, so tensor
    # conversions share the Laplacian's symbol
    ell = np.sqrt(g[1, 1] - g[0, 1] ** 2 / g[0, 0])
    gs = np.zeros_like(g)
    gs[0, 0] = 1.0 / np.sqrt(g[0, 0])
    gs[1, 0] = -g[0, 1] / (g[0, 0] * ell)
    gs[1, 1] = 1.0 / ell

    # normals adapted to the tangent phase a (J_a e1 = e2) and its companion
    # b: J_a J_b = -J_b J_a gives J_a e3 = -e4, so the frame is positive
    b = _companion(_tangent_phase(e1, e2, _TRIPLE))
    e3 = _apply_phase(b, e1, _TRIPLE)
    e4 = _apply_phase(b, e2, _TRIPLE)
    h = _second_fundamental_form(f_uu, f_uv, f_vv, (e3, e4))

    trace = ginv[0, 0] * f_uu + 2 * ginv[0, 1] * f_uv + ginv[1, 1] * f_vv
    big_h = trace - _dot(trace, e1) * e1 - _dot(trace, e2) * e2
    norm_h_sq = _dot(big_h, big_h)
    # |A|^2 = sum_alpha tr((g^-1 h_alpha)^2), with (g^-1 h_alpha)_ij = g^ik h_alpha,kj
    m = [[ginv[i, 0] * h[:, 0, j] + ginv[i, 1] * h[:, 1, j] for j in (0, 1)] for i in (0, 1)]
    tr_sq = m[0][0] ** 2 + 2 * m[0][1] * m[1][0] + m[1][1] ** 2
    norm_a_sq = tr_sq[0] + tr_sq[1]

    # diagonal fluxes sqrt(g) g^ii, averaged once onto the grid edges
    flux_u = sqrt_det_g * ginv[0, 0]
    flux_v = sqrt_det_g * ginv[1, 1]

    # sqrt is monotone and correctly rounded: the root of the least square
    # is the least root, bit for bit
    min_edge = float(np.sqrt(min(du_sq.min(), dv_sq.min())))

    planes = dict(
        g=g, ginv=ginv, sqrt_det_g=sqrt_det_g, f_u=f_u, f_v=f_v, f_uu=f_uu, f_uv=f_uv,
        f_vv=f_vv, e1=e1, e2=e2, e3=e3, e4=e4, gs=gs, h=h,
        H=big_h, norm_H_sq=norm_h_sq, norm_A_sq=norm_a_sq,
        au=0.5 * (flux_u + _shift(flux_u, -1, 0)),
        av=0.5 * (flux_v + _shift(flux_v, -1, 1)),
        cuv=sqrt_det_g * ginv[0, 1],
    )
    # read-only before the views are taken, so they inherit it and no
    # memoized result can drift from the arrays it was computed from
    for plane in planes.values():
        plane.flags.writeable = False
    return GeometryCache(
        grid=grid, min_edge=min_edge, **{name: _node_major(p) for name, p in planes.items()}
    )


# the (di, dj) neighbour offsets of a stencil row in storage order: slot
# 7 - k is the opposite of slot k, and the node itself comes last
_STENCIL_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1), (0, 0))


@functools.lru_cache(maxsize=8)
def _stencil_pattern(nu, nv):
    """int32 CSR indptr, indices of the periodic nine-point stencil, node last.
    Read-only: scipy sorts a matrix's indices in place, so each matrix copies them."""
    i, j = np.indices((nu, nv), dtype=np.int32)
    indices = np.stack(
        [(i + di) % nu * nv + (j + dj) % nv for di, dj in _STENCIL_OFFSETS], -1
    ).ravel()
    indptr = np.arange(0, indices.size + 1, len(_STENCIL_OFFSETS), dtype=np.int32)
    indices.flags.writeable = indptr.flags.writeable = False
    return indptr, indices


def _laplacian_asymmetry(mat, nu, nv):
    """abs(mat - mat.T).max() / abs(mat).max() of a laplacian_matrix, read
    off its (nu, nv, 9) stencil rows without a sparse transpose.

    The transpose partner of slot k at a node is slot 7 - k of the
    neighbour at slot k's offset; slot 8, the diagonal, is its own.  Each
    difference is the one the sparse subtraction forms, and a max does not
    depend on order, so the value is the same bit for bit.
    """
    rows = mat.data.reshape(nu, nv, len(_STENCIL_OFFSETS))
    # np.max, not the builtin: a NaN must reach the report, as it does sparse
    asym = np.max([
        np.abs(rows[..., k] - _shift(_shift(rows[..., 7 - k], -di, 0), -dj, 1)).max()
        for k, (di, dj) in enumerate(_STENCIL_OFFSETS[:-1])
    ])
    return asym / max(np.abs(rows).max(), 1e-300)


def laplacian_matrix(cache):
    """Sparse (A, w) with A = -W Lap, w the node-area diagonal.

    Row (i, j) holds edge fluxes au, av toward the axis neighbours and the
    centred cross flux cuv toward the diagonal ones, each computed once and
    mirrored, so A is exactly symmetric.  The diagonal is stored last, as the
    negated left-to-right sum of the eight entries before it: the sparse
    product adds a row in that order, so A @ 1 is exactly 0.
    """
    import scipy.sparse as sp

    nu, nv = cache.grid.nu, cache.grid.nv
    east = -(cache.hv / cache.hu) * cache.au     # toward (i+1, j)
    north = -(cache.hu / cache.hv) * cache.av    # toward (i, j+1)
    cuv_east = _shift(cache.cuv, -1, 0)
    north_east = -0.25 * (cuv_east + _shift(cache.cuv, -1, 1))
    south_east = 0.25 * (cuv_east + _shift(cache.cuv, 1, 1))
    # toward (i-1, *) and (i, j-1): the neighbour's entry toward (i, j)
    offdiag = [_shift(_shift(north_east, 1, 0), 1, 1), _shift(east, 1, 0),
               _shift(_shift(south_east, 1, 0), -1, 1), _shift(north, 1, 1),
               north, south_east, east, north_east]
    data = np.stack(offdiag + [-sum(offdiag)], axis=-1).ravel()
    indptr, indices = _stencil_pattern(nu, nv)
    a = sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(nu * nv, nu * nv))
    return a, cache.node_area().ravel()


def laplace_beltrami(fld, cache):
    """Conservative-form Laplace-Beltrami of a scalar or vector field.

    (1/sqrt g) d_i (sqrt g g^{ij} d_j f) as -(A f) / w, (A, w) from
    laplacian_matrix: symmetric and nonpositive against the area weights,
    exactly 0 on constants since A's diagonal closes each row in summation order.
    """
    f = np.asarray(fld, float)
    if f.shape[:2] != cache.sqrt_det_g.shape:
        raise InputError(f"field shape {f.shape} does not match the grid")
    a, w = laplacian_matrix(cache)
    return (-(a @ f.reshape(w.size, -1)) / w[:, None]).reshape(f.shape)


def dirichlet_energy_density(fld, cache):
    """Pointwise energy density |grad f|^2 distributed so that its area
    integral equals the quadratic form of -laplace_beltrami exactly."""
    f = np.asarray(fld, float)
    f = f[None] if f.ndim == 2 else _planes(f)
    hu, hv = cache.hu, cache.hv
    du = (_shift(f, -1, 1) - f) / hu             # forward edge differences
    dv = (_shift(f, -1, 2) - f) / hv
    e_u = cache.au * _dot(du, du)
    e_v = cache.av * _dot(dv, dv)
    # each edge contributes half to its two endpoint nodes
    density = 0.5 * (e_u + _shift(e_u, 1, 0) + e_v + _shift(e_v, 1, 1))
    density += 2.0 * cache.cuv * _dot(_central(f, 1, hu), _central(f, 2, hv))
    return density / cache.sqrt_det_g


def surface_integral(density, cache):
    return float(np.sum(np.asarray(density) * cache.sqrt_det_g) * cache.hu * cache.hv)


def gauss_curvature_check(cache):
    """|K_intrinsic - K_extrinsic| per node on a flat ambient.

    Extrinsic side from the second fundamental form, intrinsic side from
    the Brioschi formula applied to the discrete metric: the difference of
    its two 3 x 3 determinants, each expanded along the first row,

        | c          Eu/2  Fu - Ev/2 |   | 0     Ev/2  Gu/2 |
        | Fv - Gu/2  E     F         | - | Ev/2  E     F    |
        | Gv/2       F     G         |   | Gu/2  F     G    |

    with c = -Evv/2 + Fuv - Guu/2, over det^2, det = EG - F^2.
    """
    h = _planes(cache.h, 3)
    det = cache.sqrt_det_g**2
    k_ext = (
        h[0, 0, 0] * h[0, 1, 1] - h[0, 0, 1] ** 2 + h[1, 0, 0] * h[1, 1, 1] - h[1, 0, 1] ** 2
    ) / det

    hu, hv = cache.hu, cache.hv
    g = _planes(cache.g, 2)
    E, F, G = g[0, 0], g[0, 1], g[1, 1]
    Eu, Ev, Fu, Fv, Gu, Gv = (_central(w, ax, hs) for w in (E, F, G) for ax, hs in ((0, hu), (1, hv)))
    Evv = (_shift(E, -1, 1) - 2 * E + _shift(E, 1, 1)) / hv**2
    Guu = (_shift(G, -1, 0) - 2 * G + _shift(G, 1, 0)) / hu**2
    Fuv = _central(Fv, 0, hu)

    c, r2, r3 = -0.5 * Evv + Fuv - 0.5 * Guu, Fv - 0.5 * Gu, 0.5 * Gv
    det1 = c * det - 0.5 * Eu * (r2 * G - F * r3) + (Fu - 0.5 * Ev) * (r2 * F - E * r3)
    det2 = -0.5 * Ev * (0.5 * Ev * G - 0.5 * Gu * F) + 0.5 * Gu * (0.5 * Ev * F - 0.5 * Gu * E)
    k_int = (det1 - det2) / det**2
    return np.abs(k_int - k_ext)


def save_snapshot(grid, path):
    """Write a version-2 JSON snapshot of the grid; positions round-trip bit exactly.

    The document holds version, nu, nv, periods (null in R^4) and
    positions: the base64 text of the little-endian float64 ("<f8")
    bytes of the (nu, nv, 4) node-major positions.
    """
    payload = np.asarray(grid.positions, dtype="<f8").tobytes()
    doc = {
        "version": SNAPSHOT_VERSION,
        "nu": grid.nu,
        "nv": grid.nv,
        "periods": list(grid.ambient.periods) if grid.ambient.periods else None,
        "positions": base64.b64encode(payload).decode("ascii"),
    }
    _write_text(path, "snapshot", json.dumps(doc) + "\n")


def _number_list(path, key, value, expected):
    """A flat JSON list of numbers as float64; anything else, a nested list,
    a bool or a string among them, raises InputError naming the field."""
    if not isinstance(value, list):
        raise InputError(
            f"snapshot {path}: field {key!r} must be {expected}, got {type(value).__name__}"
        )
    for k, x in enumerate(value):
        if type(x) not in (int, float):      # bool subclasses int, so isinstance would pass it
            raise InputError(
                f"snapshot {path}: field {key!r} is not a flat list of numbers: "
                f"entry {k} is {type(x).__name__}"
            )
    try:
        return np.array(value, dtype=float)
    except OverflowError as exc:             # an integer beyond float64
        raise InputError(f"snapshot {path}: field {key!r} is not numeric: {exc}") from exc


def _decode_positions(path, version, positions):
    """The flat float64 coordinates of a snapshot's positions field."""
    if version == 1:
        return _number_list(path, "positions", positions, "a list under version 1")
    if not isinstance(positions, str):
        raise InputError(
            f"snapshot {path}: field 'positions' must be base64 text under version 2, "
            f"got {type(positions).__name__}"
        )
    try:
        payload = base64.b64decode(positions, validate=True)
    except ValueError as exc:            # binascii.Error and non-ASCII text
        raise InputError(f"snapshot {path}: field 'positions' is not base64: {exc}") from exc
    if len(payload) % 8:
        raise InputError(
            f"snapshot {path}: field 'positions' holds {len(payload)} bytes, "
            "not a whole number of float64 values"
        )
    return np.frombuffer(payload, dtype="<f8").astype(float)


def load_snapshot(path):
    """Read a version-2 or version-1 snapshot; anything malformed raises InputError.

    Version 2 is what save_snapshot writes.  Version 1 holds the same
    coordinates as a flat JSON list of numbers and is still read.  Under
    either version periods is null or a list of numbers; a bool is not a
    number.  The grid's positions are a fresh, writeable, C-contiguous
    float64 array.
    """
    try:
        doc = json.loads(_read_text(path, "snapshot"))
    except json.JSONDecodeError as exc:
        raise InputError(f"snapshot {path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise InputError(f"snapshot {path} nests its JSON too deeply") from None
    if not isinstance(doc, dict):
        raise InputError(f"snapshot {path} is not a JSON object")
    for key in ("version", "nu", "nv", "periods", "positions"):
        if key not in doc:
            raise InputError(f"snapshot {path} is missing field {key!r}")
    version = doc["version"]
    if type(version) is not int or version not in (1, SNAPSHOT_VERSION):
        raise InputError(f"snapshot version {version!r} is not supported")

    for key in ("nu", "nv"):
        if type(doc[key]) is not int:                 # bools and 16.9 too
            raise InputError(f"snapshot {path}: field {key!r} is not an integer: {doc[key]!r}")
    nu, nv = doc["nu"], doc["nv"]
    if nu < MIN_GRID or nv < MIN_GRID:
        size = "empty" if min(nu, nv) < 1 else "too small"
        raise InputError(
            f"snapshot {path}: grid {nu} x {nv} is {size}, need {MIN_GRID} x {MIN_GRID}"
        )
    pos = _decode_positions(path, version, doc["positions"])
    periods = doc["periods"]
    if periods is not None:
        periods = _number_list(path, "periods", periods, "null or a list of numbers")
        periods = tuple(periods.tolist())
    if pos.size != nu * nv * 4:
        raise InputError(
            f"snapshot {path}: field 'positions': expected {nu * nv * 4} coordinates, "
            f"got {pos.size}"
        )
    if not np.all(np.isfinite(pos)):
        raise InputError(f"snapshot {path}: field 'positions' holds non-finite coordinates")
    return SurfaceGrid(nu, nv, pos.reshape(nu, nv, 4), AmbientSpace(periods))
