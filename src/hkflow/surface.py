"""Discrete extrinsic geometry of doubly periodic immersed surfaces.

The parameter domain is always [0, 2pi)^2 sampled on a uniform nu x nv
grid with periodic index arithmetic.  Derivatives are second order central
differences taken on shortest-image displacements, so torus seams never
enter the stencils.

Metric convention: the diagonal entries g_uu, g_vv are averaged squared
EDGE lengths, (|F(i+1)-F(i)|^2 + |F(i)-F(i-1)|^2) / (2 h^2), while g_uv
comes from the central tangents.  The edge form shares its Fourier symbol
with the central second difference, which makes H exact on products of
circles and keeps the discrete integration by parts of the Laplacian
clean; a pure central-difference metric loses an O(h^2) factor between
the two and visibly biases |H|^2.

The normal frame (e3, e4) = (J_b e1, J_b e2) is adapted to the tangent
phase a and its companion b = kernel.phi_field(a), positive by construction.
"""

import ast
import json
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, IOFailure, NumericalError
from .kernel import AmbientSpace, _apply_phase, _tangent_phase, phi_field, standard_twistor_triple

DET_FLOOR_REL = 1e-10
SNAPSHOT_VERSION = 1
_TRIPLE = standard_twistor_triple()


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
        u = np.arange(self.nu) * self.hu
        v = np.arange(self.nv) * self.hv
        return np.meshgrid(u, v, indexing="ij")


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
        return _EXPR_BINOPS[type(node.op)](left, right)
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


def _eval_expr(expr, u, v):
    try:
        tree = ast.parse(expr, mode="eval")
        out = _eval_node(tree.body, {"u": u, "v": v, "pi": np.pi})
    except (
        InputError, SyntaxError, ValueError, ArithmeticError, RecursionError, MemoryError
    ) as exc:
        raise InputError(f"cannot evaluate expression {expr!r}: {exc}") from exc
    return np.broadcast_to(np.asarray(out, float), u.shape)


def build_immersion(spec):
    """Sample one of the catalogue immersions onto a periodic grid."""
    if spec.nu < 4 or spec.nv < 4:
        raise InputError(f"grid too small: nu={spec.nu}, nv={spec.nv}")
    hu = 2.0 * np.pi / spec.nu
    hv = 2.0 * np.pi / spec.nv
    u = np.arange(spec.nu)[:, None] * hu * np.ones((1, spec.nv))
    v = np.ones((spec.nu, 1)) * np.arange(spec.nv)[None, :] * hv
    p = spec.params

    if spec.name == "flat-plane-torus":
        lu = float(p.get("Lu", 2.0 * np.pi))
        lv = float(p.get("Lv", 2.0 * np.pi))
        if lu <= 0 or lv <= 0:
            raise InputError("flat-plane-torus needs positive periods")
        pos = np.stack(
            [lu * u / (2 * np.pi), lv * v / (2 * np.pi), 0 * u, 0 * u], axis=-1
        )
        ambient = AmbientSpace((lu, lv, 2 * np.pi, 2 * np.pi))
    elif spec.name == "clifford":
        rr = float(p.get("R", 1.0))
        r = float(p.get("r", 1.0))
        if rr <= 0 or r <= 0:
            raise InputError("clifford needs positive radii")
        pos = np.stack(
            [rr * np.cos(u), rr * np.sin(u), r * np.cos(v), r * np.sin(v)], axis=-1
        )
        ambient = AmbientSpace(None)
    elif spec.name == "perturbed-complex-torus":
        eps = float(p.get("eps", 0.05))
        if eps <= 0:
            raise InputError("perturbed-complex-torus needs eps > 0")
        pos = np.stack([u, v, eps * np.sin(u), eps * np.sin(v)], axis=-1)
        ambient = AmbientSpace((2 * np.pi,) * 4)
    elif spec.name == "lagrangian-graph":
        eps = float(p.get("eps", 0.1))
        if eps <= 0:
            raise InputError("lagrangian-graph needs eps > 0")
        # divergence-free height pair, so the graph is exactly Lagrangian
        # for omega_{J3} = -dx0^dx3 + dx1^dx2
        pos = np.stack(
            [u, v, eps * np.cos(u) * np.sin(v), -eps * np.sin(u) * np.cos(v)],
            axis=-1,
        )
        ambient = AmbientSpace((2 * np.pi,) * 4)
    elif spec.name == "custom-expression":
        exprs = p.get("exprs")
        if not exprs or len(exprs) != 4:
            raise InputError("custom-expression needs exprs = 4 strings")
        pos = np.stack([_eval_expr(e, u, v) for e in exprs], axis=-1)
        periods = p.get("periods")
        ambient = AmbientSpace(tuple(periods) if periods else None)
    else:
        raise InputError(f"unknown scenario {spec.name!r}")

    if not np.all(np.isfinite(pos)):
        raise InputError(f"scenario {spec.name!r} produced non-finite positions")
    return SurfaceGrid(spec.nu, spec.nv, ambient.wrap(pos), ambient)


@dataclass
class GeometryCache:
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

    @property
    def hu(self):
        return self.grid.hu

    @property
    def hv(self):
        return self.grid.hv

    def node_area(self):
        return self.sqrt_det_g * self.hu * self.hv


def _central(f, axis, h):
    """Periodic central difference of a grid field along one parameter axis."""
    return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) / (2 * h)


def _cometric(ginv, xu, xv):
    """g^{ij} x_i x_j for a covector with parameter components (xu, xv)."""
    return ginv[..., 0, 0] * xu**2 + 2 * ginv[..., 0, 1] * xu * xv + ginv[..., 1, 1] * xv**2


def _second_fundamental_form(f_uu, f_uv, f_vv, normals):
    """[alpha, i, j] = <f_ij, n_alpha> for a pair of normal fields."""
    h = np.empty(f_uu.shape[:2] + (2, 2, 2))
    for alpha, n in enumerate(normals):
        h[..., alpha, 0, 0] = (f_uu * n).sum(-1)
        h[..., alpha, 0, 1] = h[..., alpha, 1, 0] = (f_uv * n).sum(-1)
        h[..., alpha, 1, 1] = (f_vv * n).sum(-1)
    return h


def compute_geometry(grid):
    pos = grid.positions
    hu, hv = grid.hu, grid.hv
    amb = grid.ambient

    finite = np.isfinite(pos).all(-1)
    if not finite.all():
        ij = tuple(int(k) for k in np.unravel_index(np.argmin(finite), finite.shape))
        raise NumericalError(f"non-finite position at node {ij}: {pos[ij]}")

    du_f = amb.displacement(pos, np.roll(pos, -1, axis=0))   # F(i+1,j) - F(i,j)
    dv_f = amb.displacement(pos, np.roll(pos, -1, axis=1))
    du_b = np.roll(du_f, 1, axis=0)              # F(i,j) - F(i-1,j)
    dv_b = np.roll(dv_f, 1, axis=1)

    f_u = (du_f + du_b) / (2 * hu)
    f_v = (dv_f + dv_b) / (2 * hv)
    f_uu = (du_f - du_b) / hu**2
    f_vv = (dv_f - dv_b) / hv**2
    # cross derivative: central difference of the (seam-free) tangent field
    f_uv = _central(f_u, 1, hv)

    g = np.empty(pos.shape[:2] + (2, 2))
    g[..., 0, 0] = 0.5 * ((du_f**2).sum(-1) + (du_b**2).sum(-1)) / hu**2
    g[..., 1, 1] = 0.5 * ((dv_f**2).sum(-1) + (dv_b**2).sum(-1)) / hv**2
    g[..., 0, 1] = g[..., 1, 0] = (f_u * f_v).sum(-1)

    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] ** 2
    floor = DET_FLOOR_REL * float(np.mean(det))
    if not np.min(det) > max(floor, 0.0):       # NaN fails too
        ij = np.unravel_index(np.argmin(det), det.shape)
        raise NumericalError(
            f"metric-degenerate at node {ij}: det g = {np.min(det):.3e}"
        )

    ginv = np.empty_like(g)
    ginv[..., 0, 0] = g[..., 1, 1] / det
    ginv[..., 1, 1] = g[..., 0, 0] / det
    ginv[..., 0, 1] = ginv[..., 1, 0] = -g[..., 0, 1] / det
    sqrt_det_g = np.sqrt(det)

    # ambient-orthonormal tangent pair (for frames and the phase)
    e1 = f_u / np.linalg.norm(f_u, axis=-1, keepdims=True)
    e2 = f_v - (f_v * e1).sum(-1, keepdims=True) * e1
    e2 /= np.linalg.norm(e2, axis=-1, keepdims=True)

    # metric Gram-Schmidt rows for converting parameter indices to the
    # orthonormal frame; uses the edge metric, not ambient dots, so tensor
    # conversions share the Laplacian's symbol
    ell = np.sqrt(g[..., 1, 1] - g[..., 0, 1] ** 2 / g[..., 0, 0])
    gs = np.zeros(pos.shape[:2] + (2, 2))
    gs[..., 0, 0] = 1.0 / np.sqrt(g[..., 0, 0])
    gs[..., 1, 0] = -g[..., 0, 1] / (g[..., 0, 0] * ell)
    gs[..., 1, 1] = 1.0 / ell

    # normals adapted to the tangent phase a (J_a e1 = e2) and its companion
    # b: J_a J_b = -J_b J_a gives J_a e3 = -e4, so the frame is positive
    b = phi_field(_tangent_phase(e1, e2, _TRIPLE))
    e3 = _apply_phase(b, e1, _TRIPLE)
    e4 = _apply_phase(b, e2, _TRIPLE)
    h = _second_fundamental_form(f_uu, f_uv, f_vv, (e3, e4))

    trace = (
        ginv[..., 0, 0, None] * f_uu
        + 2 * ginv[..., 0, 1, None] * f_uv
        + ginv[..., 1, 1, None] * f_vv
    )
    big_h = (
        trace
        - (trace * e1).sum(-1, keepdims=True) * e1
        - (trace * e2).sum(-1, keepdims=True) * e2
    )
    norm_h_sq = (big_h**2).sum(-1)
    norm_a_sq = np.einsum(
        "...ik,...jl,...aij,...akl->...", ginv, ginv, h, h, optimize=True
    )

    # diagonal fluxes sqrt(g) g^ii, averaged once onto the grid edges
    flux_u = sqrt_det_g * ginv[..., 0, 0]
    flux_v = sqrt_det_g * ginv[..., 1, 1]

    min_edge = float(
        min(np.sqrt((du_f**2).sum(-1)).min(), np.sqrt((dv_f**2).sum(-1)).min())
    )

    return GeometryCache(
        grid=grid, g=g, ginv=ginv, sqrt_det_g=sqrt_det_g,
        f_u=f_u, f_v=f_v, f_uu=f_uu, f_uv=f_uv, f_vv=f_vv,
        e1=e1, e2=e2, e3=e3, e4=e4, gs=gs, h=h,
        H=big_h, norm_H_sq=norm_h_sq, norm_A_sq=norm_a_sq,
        au=0.5 * (flux_u + np.roll(flux_u, -1, axis=0)),
        av=0.5 * (flux_v + np.roll(flux_v, -1, axis=1)),
        cuv=sqrt_det_g * ginv[..., 0, 1], min_edge=min_edge,
    )


def laplace_beltrami(fld, cache):
    """Conservative-form Laplace-Beltrami of a scalar or vector field.

    (1/sqrt g) d_i (sqrt g g^{ij} d_j f) with edge-averaged diagonal fluxes
    and centered cross fluxes; symmetric and nonpositive against the area
    weights, exact on constants.
    """
    f = np.asarray(fld, float)
    if f.shape[:2] != cache.sqrt_det_g.shape:
        raise InputError(f"field shape {f.shape} does not match the grid")
    vec = f.ndim == 3
    if not vec:
        f = f[..., None]
    hu, hv = cache.hu, cache.hv
    au, av, cuv = cache.au[..., None], cache.av[..., None], cache.cuv[..., None]

    out = (
        au * (np.roll(f, -1, axis=0) - f) - np.roll(au, 1, axis=0) * (f - np.roll(f, 1, axis=0))
    ) / hu**2
    out += (
        av * (np.roll(f, -1, axis=1) - f) - np.roll(av, 1, axis=1) * (f - np.roll(f, 1, axis=1))
    ) / hv**2
    out += _central(cuv * _central(f, 1, hv), 0, hu) + _central(cuv * _central(f, 0, hu), 1, hv)

    out /= cache.sqrt_det_g[..., None]
    return out if vec else out[..., 0]


def dirichlet_energy_density(fld, cache):
    """Pointwise energy density |grad f|^2 distributed so that its area
    integral equals the quadratic form of -laplace_beltrami exactly."""
    f = np.asarray(fld, float)
    if f.ndim == 2:
        f = f[..., None]
    hu, hv = cache.hu, cache.hv
    du = (np.roll(f, -1, axis=0) - f) / hu       # forward edge differences
    dv = (np.roll(f, -1, axis=1) - f) / hv
    e_u = cache.au * (du**2).sum(-1)
    e_v = cache.av * (dv**2).sum(-1)
    # each edge contributes half to its two endpoint nodes
    density = 0.5 * (e_u + np.roll(e_u, 1, axis=0) + e_v + np.roll(e_v, 1, axis=1))
    density += 2.0 * cache.cuv * (_central(f, 0, hu) * _central(f, 1, hv)).sum(-1)
    return density / cache.sqrt_det_g


def surface_integral(density, cache):
    return float(np.sum(np.asarray(density) * cache.sqrt_det_g) * cache.hu * cache.hv)


def gauss_curvature_check(cache):
    """|K_intrinsic - K_extrinsic| per node on a flat ambient.

    Extrinsic side from the second fundamental form, intrinsic side from
    the Brioschi formula applied to the discrete metric.
    """
    h = cache.h
    det = cache.sqrt_det_g**2
    k_ext = (
        h[..., 0, 0, 0] * h[..., 0, 1, 1] - h[..., 0, 0, 1] ** 2
        + h[..., 1, 0, 0] * h[..., 1, 1, 1] - h[..., 1, 0, 1] ** 2
    ) / det

    hu, hv = cache.hu, cache.hv
    dcu = lambda w: _central(w, 0, hu)
    dcv = lambda w: _central(w, 1, hv)
    d2u = lambda w: (np.roll(w, -1, axis=0) - 2 * w + np.roll(w, 1, axis=0)) / hu**2
    d2v = lambda w: (np.roll(w, -1, axis=1) - 2 * w + np.roll(w, 1, axis=1)) / hv**2

    E, F, G = cache.g[..., 0, 0], cache.g[..., 0, 1], cache.g[..., 1, 1]
    Eu, Ev = dcu(E), dcv(E)
    Gu, Gv = dcu(G), dcv(G)
    Fu, Fv = dcu(F), dcv(F)
    Evv, Guu = d2v(E), d2u(G)
    Fuv = dcu(dcv(F))

    m1 = np.stack(
        [
            np.stack([-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev], -1),
            np.stack([Fv - 0.5 * Gu, E, F], -1),
            np.stack([0.5 * Gv, F, G], -1),
        ],
        -2,
    )
    zero = np.zeros_like(E)
    m2 = np.stack(
        [
            np.stack([zero, 0.5 * Ev, 0.5 * Gu], -1),
            np.stack([0.5 * Ev, E, F], -1),
            np.stack([0.5 * Gu, F, G], -1),
        ],
        -2,
    )
    k_int = (np.linalg.det(m1) - np.linalg.det(m2)) / det**2
    return np.abs(k_int - k_ext)


def save_snapshot(grid, path):
    """Versioned JSON snapshot; floats round-trip bit exactly."""
    doc = {
        "version": SNAPSHOT_VERSION,
        "nu": grid.nu,
        "nv": grid.nv,
        "periods": list(grid.ambient.periods) if grid.ambient.periods else None,
        "positions": [float(x) for x in grid.positions.reshape(-1)],
    }
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
    except OSError as exc:
        raise IOFailure(f"cannot write snapshot {path}: {exc}") from exc


def load_snapshot(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IOFailure(f"cannot read snapshot {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"snapshot {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"snapshot {path} is not a JSON object")
    for key in ("version", "nu", "nv", "periods", "positions"):
        if key not in doc:
            raise InputError(f"snapshot {path} is missing field {key!r}")
    if doc["version"] != SNAPSHOT_VERSION:
        raise InputError(f"snapshot version {doc['version']} is not supported")

    def numeric(key, convert):
        try:
            return convert(doc[key])
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"snapshot {path}: field {key!r} is not numeric: {exc}") from exc

    nu, nv = numeric("nu", int), numeric("nv", int)
    if nu < 1 or nv < 1:
        raise InputError(f"snapshot {path}: grid {nu} x {nv} is empty")
    pos = numeric("positions", lambda x: np.array(x, dtype=float))
    periods = numeric("periods", lambda x: tuple(float(p) for p in x) if x else None)
    if pos.size != nu * nv * 4:
        raise InputError(
            f"snapshot {path}: expected {nu * nv * 4} coordinates, got {pos.size}"
        )
    if not np.all(np.isfinite(pos)):
        raise InputError(f"snapshot {path} contains non-finite positions")
    return SurfaceGrid(nu, nv, pos.reshape(nu, nv, 4), AmbientSpace(periods))
