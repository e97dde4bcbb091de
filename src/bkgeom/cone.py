"""The su(n,1) cone geometry: sections, contact frames and quotient curvature.

The adjoint cone of a maximal root element is modeled as C^n - 0 via the
S^1-normalized null-vector representative (x, ||x||); its projectivization
is S^(2n-1).  An element a of u(n) acts on the cone through the trace
twist a + tr(a) I, written once, in `algebra_action`.  For the diagonal
generator diag(i lam_1, ..., i lam_n, -i sigma), sigma = sum lam_j, that is
diag(i (lam_j + sigma)), and the paper's section of sign s = +-1 is the
quadric sum_j (lam_j + sigma) |x_j|^2 = s.  The J_M formula and the
template cohere only on the level -1; reversing the flow negates the
quadric and keeps the section set, so a `ConeModel` fixes the flow once,
when it is built: its action matrix is

    act = diag(i alpha_j),    alpha_j = -s (lam_j + sigma),

and every model's section is

    Sigma = { x : lambda(act x) = sum_j alpha_j |x_j|^2 = -1 },

where lambda(act x) is the contact form on xi0 = act x.  All geometric
formulas below use `act`:

    J_M(X)     = JX - (X, act p) p - ((X,p)/|p|^2) Jp
    g_D(X, Y)  = (X, Y) - (X,p)(Y,p)/|p|^2

Each pointwise formula is one matrix expression on a column block: X and
Y may be single vectors of shape (n,) or blocks of shape (n, k), and a
pairing of blocks is the (k, m) matrix of pairings of their columns, so a
frame Gram matrix or the frame matrix of an endomorphism is one call.

Quotient charts (`quotient_chart`, on a frame from `contact_frame`): the
local slice through p is the affine span of a contact frame, renormalized
radially onto Sigma; slice tangents are projected onto the contact
distribution along xi0 and paired with g_D.  A chart makes its slice real
once, when it is built, so each metric evaluation is a few real matrix
products.  The curvature of that chart metric is compared against the
template

    R = R_(rho~/2),    rho~ = -2 rho_M - |act p|^2 J,

where rho_M = g(F, act F) is the generator compressed onto the contact
frame F.  rho~ is the g^0 action rho + tr(rho)/2 of the structure
function rho in the Cahen-Schwachhoefer normal form of the generator at
p; the tests derive it from that normal form point by point, and
`verify_curvature_prop` gates it against a wrong-coefficient control.

Real coordinates stack Re over Im, matching the curvature module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curvature import KaehlerModel, complex_to_real_endo, curvature_from_rho, to_real
from .fdgeom import STEP, ChartFailureError, ChartMetric, riemann
from .hermitian import HermitianSpace, SuElement, su_element

TRANSVERSALITY_THRESHOLD = 1e-6


class EmptySectionError(ValueError):
    """The section quadric has no solutions for the chosen sign."""


class TangencyError(ValueError):
    """The symmetry direction is not transversal to the contact distribution."""


def flat_inner(X, Y):
    """g(X, Y) = Re <X, Y>, the flat Kaehler metric on C^n, column by column.

    Vectors give a float; an (n, k) block against a vector gives shape (k,),
    and two blocks give the (k, m) matrix of pairings of their columns.
    Summed as the real inner product of the stacked real coordinates, so
    flat_inner(X, X) is exactly symmetric.
    """
    X, Y = np.asarray(X), np.asarray(Y)
    return X.real.T @ Y.real + X.imag.T @ Y.imag


def algebra_action(a, X) -> np.ndarray:
    """u(n) action on cone tangents, column by column: a . X = (tr(a) I + a) X.

    This is the trace twist of the cone action; on the identity block it
    returns the twisted action matrix a + tr(a) I itself.
    """
    a = np.asarray(a, dtype=complex)
    X = np.asarray(X, dtype=complex)
    return np.trace(a) * X + a @ X


@dataclass(frozen=True, eq=False)
class ConeModel:
    """Diagonal type-1 generator data for the cone C^n - 0.

    lambdas, sigma_sign and generator() describe the input: the section
    sum_j (lam_j + sigma) |x_j|^2 = sigma_sign.  action is the twisted
    generator, negated (the reversed flow) for sigma_sign = +1, so the
    section is lambda(act x) = -1 for either sign.
    """

    lambdas: np.ndarray
    sigma_sign: int = 1          # +1: quadric = +1 (as displayed); -1: flipped
    action: np.ndarray = field(init=False)  # diag(i alpha), alpha = -sigma_sign (lam + sigma)

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lambdas, dtype=float))
        object.__setattr__(self, "lambdas", lam)
        if self.sigma_sign not in (1, -1):
            raise ValueError("sigma_sign must be +-1")
        oriented = -self.sigma_sign * lam
        object.__setattr__(self, "action",
                           algebra_action(np.diag(1j * oriented), np.eye(lam.size)))

    @property
    def n(self) -> int:
        return self.lambdas.size

    @property
    def action_coefficients(self) -> np.ndarray:
        """alpha = -sigma_sign (lam + sigma): the action is x_j -> i alpha_j x_j."""
        return self.action.diagonal().imag

    def generator(self) -> SuElement:
        diag = np.concatenate([1j * self.lambdas, [-1j * self.lambdas.sum()]])
        return su_element(np.diag(diag), HermitianSpace(self.n))

    def act(self, X) -> np.ndarray:
        return self.action @ np.asarray(X, dtype=complex)


def cp_cone_model(n: int) -> ConeModel:
    """Equal-coefficient model whose quotient is projective (n-1)-space.

    lam_j = -1/(2(n+1)) gives action -(i/2) x and the flipped-sign section,
    a round sphere of radius sqrt(2).  Its generator() is the projective
    generator diag(-i/(2(n+1)), ..., -i/(2(n+1)), i n/(2(n+1))) of su(n,1).
    """
    return ConeModel(np.full(n, -1.0 / (2.0 * (n + 1))), sigma_sign=-1)


def random_type1_cone_model(n: int, seed: int) -> ConeModel:
    """A generic well-conditioned diagonal model with a nonempty section."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.25, 1.0, n)
    return ConeModel(lam, sigma_sign=1)


# -- cone representatives ------------------------------------------------------


def cone_rep(y, space: HermitianSpace) -> np.ndarray:
    """S^1-orbit representative of a null vector: last coordinate real positive.

    Returns the C^n truncation x with lift (x, ||x||).
    """
    y = np.asarray(y, dtype=complex)
    hy = space.herm(y, y)
    if abs(hy) > 1e-10 * max(1.0, float(np.vdot(y, y).real)):
        raise ValueError("cone representatives require a null vector")
    last = y[-1]
    if abs(last) < 1e-10:
        raise ValueError("null vector with vanishing last coordinate")
    return (y / (last / abs(last)))[:-1]


def cone_lift(x) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    return np.concatenate([x, [np.linalg.norm(x)]])


def contact_form(X, p):
    """lambda(X) at p: g(X, Jp), column by column; equals the quadric value on xi0."""
    return flat_inner(np.asarray(X, dtype=complex), 1j * np.asarray(p, dtype=complex))


# -- the section Sigma ---------------------------------------------------------


def sigma_sample(model: ConeModel, seed: int, count: int = 1) -> list[np.ndarray]:
    """Deterministic points on Sigma by radial scaling of random directions.

    Each draw's coordinates are scaled by sqrt(min(1, M / |alpha_j|)),
    M = max(-alpha), so no coefficient of the scaled quadric exceeds M in
    size and a section whose negative part is small is still hit.  The
    coordinates of the k positive coefficients are further divided by
    sqrt(k) (exactly 1 for k <= 1), so their summed weight stays that of
    one coordinate and the acceptance rate does not fall geometrically
    in k.
    """
    alpha = model.action_coefficients
    if np.all(alpha >= 0):
        raise EmptySectionError("no negative action coefficient; section empty")
    top = float(np.max(-alpha))
    positive = alpha > 0
    shape = np.sqrt(top / np.maximum(np.abs(alpha), top))
    shape[positive] /= np.sqrt(max(1, int(np.sum(positive))))
    # a draw near the null cone of an indefinite quadric would scale out to
    # large |p|; the floor bounds |p|^2 by 10 / M
    floor = 0.1 * top
    rng = np.random.default_rng(seed)
    out = []
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 100000:
            raise EmptySectionError("rejection sampling failed to hit the quadric")
        v = shape * (rng.standard_normal(model.n) + 1j * rng.standard_normal(model.n))
        q = contact_form(model.act(v), v)
        if -q <= floor * flat_inner(v, v):
            continue
        out.append(v * np.sqrt(-1.0 / q))
    return out


# -- pointwise geometry on Sigma -------------------------------------------------


def _along(v, c):
    """v c: the vector v scaled by each coefficient in c (one column per entry)."""
    return np.multiply.outer(v, c)


def j_m(p, X, model: ConeModel) -> np.ndarray:
    """The lifted complex structure on the contact distribution of Sigma."""
    p = np.asarray(p, dtype=complex)
    X = np.asarray(X, dtype=complex)
    return (1j * X - _along(p, flat_inner(X, model.act(p)))
            - _along(1j * p, flat_inner(X, p) / flat_inner(p, p)))


def induced_metric(p, X, Y):
    """Degenerate metric on Sigma; positive definite on the contact distribution."""
    return flat_inner(X, Y) - _along(flat_inner(X, p), flat_inner(Y, p)) / flat_inner(p, p)


@dataclass(frozen=True, eq=False)
class DistributionFrame:
    """J_M-adapted orthonormal frame of the contact distribution at p.

    vectors holds 2n-2 complex columns ordered (v_1..v_(n-1),
    J_M v_1..J_M v_(n-1)), orthonormal for the induced metric, so the
    frame matrix of J_M is the standard block J0 and the frame metric is
    the identity.
    """

    point: np.ndarray
    vectors: np.ndarray   # complex, shape (n, 2n-2)
    model: ConeModel

    @property
    def count(self) -> int:
        return self.vectors.shape[1]

    def metric_gram(self) -> np.ndarray:
        return induced_metric(self.point, self.vectors, self.vectors)

    def matrix_of(self, endo) -> np.ndarray:
        """Frame matrix of a D -> D map given as a callable on (n, k) column blocks."""
        return induced_metric(self.point, self.vectors, endo(self.vectors))


def _distribution_normals(p, model: ConeModel) -> np.ndarray:
    """Flat-orthonormal (n, 2) block spanning the normals Jp, J act p of the contact constraints.

    One Gram-Schmidt step: a coordinate on which p vanishes stays exactly 0.
    """
    u, v = 1j * p, 1j * model.act(p)
    N = np.column_stack([u, v - (flat_inner(v, u) / flat_inner(u, u)) * u])
    lengths = np.sqrt(np.diag(flat_inner(N, N)))
    if lengths.min() < 1e-12:
        raise TangencyError("contact constraints are degenerate at p")
    return N / lengths


def contact_frame(p, model: ConeModel) -> DistributionFrame:
    """Build a J_M-adapted induced-metric-orthonormal frame of D_p.

    The 2n real unit directions, projected onto D_p along the two contact
    normals, have an induced Gram of rank 2n-2; one eigh of it, its two null
    eigenvalues dropped, gives a g_D-orthonormal basis B.  One eigh of the
    hermitian -i J_B, J_B = g_D(B, J_M B), gives the +i eigenvectors
    a + ib of J_M (J_B a = -b, J_B b = a), and the frame is B sqrt2 [a, -b].
    Raises TangencyError when xi0 fails the transversality threshold.
    """
    p = np.asarray(p, dtype=complex)
    n = model.n
    if n < 2:
        raise ChartFailureError("the quotient geometry needs n >= 2")
    lam_xi = contact_form(model.act(p), p)
    if abs(lam_xi) < TRANSVERSALITY_THRESHOLD:
        raise TangencyError(f"lambda(xi0) = {lam_xi:.3e} below threshold")
    normals = _distribution_normals(p, model)
    units = np.hstack([np.eye(n), 1j * np.eye(n)])
    proj = units - normals @ flat_inner(normals, units)
    w, V = np.linalg.eigh(induced_metric(p, proj, proj))
    B = proj @ (V[:, 2:] / np.sqrt(w[2:]))
    U = np.linalg.eigh(-1j * induced_metric(p, B, j_m(p, B, model)))[1][:, n - 1:]
    frame = DistributionFrame(p, B @ (np.sqrt(2.0) * np.hstack([U.real, -U.imag])), model)
    G = frame.metric_gram()
    JF = frame.matrix_of(lambda X: j_m(p, X, model))
    J0 = KaehlerModel(n - 1).J
    if (np.abs(G - np.eye(frame.count)).max() > 1e-9
            or np.abs(JF - J0).max() > 1e-6):
        raise ChartFailureError("frame failed orthonormality or J-adaptation checks")
    return frame


# -- quotient charts and the curvature proposition -----------------------------


def quotient_chart(frame: DistributionFrame) -> ChartMetric:
    """Local chart of Sigma / flow with the submersion metric.

    The slice is the affine span psi = p + F s of the frame, renormalized
    radially onto Sigma.  The metric is homogeneous in that radial factor,
    and lambda and g_D vanish on the radial direction, so it is taken at psi:

        g(s) = (-1 / lambda(xi0)) g_D(psi; H, H),   xi0 = act psi,

    with H = F - xi0 lambda(F) / lambda(xi0) the frame pushed into the
    contact distribution along xi0.  The slice is made real once per chart:
    F and p in stacked coordinates, and one matrix stacking act over J, so
    each evaluation is a few real matrix products.  The outer product h h
    is taken before it is divided, which keeps every metric exactly symmetric.
    """
    F = to_real(frame.vectors.T).T
    Ft = F.T
    p0 = to_real(frame.point)
    act_j = np.vstack([complex_to_real_endo(frame.model.action),
                       complex_to_real_endo(1j * np.eye(frame.model.n))])

    def ev(s):
        psi = p0 + F @ s
        xi0, j_psi = (act_j @ psi).reshape(2, -1)
        lam_xi = xi0 @ j_psi
        if not lam_xi < 0.0:
            raise ChartFailureError("slice left the section's radial domain")
        H = F - _along(xi0, (Ft @ j_psi) / lam_xi)
        h = H.T @ psi
        return (-1.0 / lam_xi) * (H.T @ H - _along(h, h) / (psi @ psi))

    return ChartMetric(frame.count, ev)


def rho_frame_matrix(frame: DistributionFrame) -> np.ndarray:
    """rho_M = g(F, act F): the generator compressed onto the contact frame.

    Skew and commuting with J0 up to roundoff: act is skew-hermitian and
    the frame is J_M-adapted.
    """
    return flat_inner(frame.vectors, frame.model.act(frame.vectors))


def curvature_template_at(frame: DistributionFrame,
                          half_rho: bool = True) -> np.ndarray:
    """Template tensor R_(rho~/2), rho~ = -2 rho_M - |act p|^2 J0, in frame coordinates.

    half_rho=False is the deliberately wrong variant (rho_M doubled:
    R of -2 rho_M - |act p|^2 J0 / 2) used as a negative control.
    """
    model = frame.model
    km = KaehlerModel(model.n - 1)
    rho_m = rho_frame_matrix(frame)
    rho_m = 0.5 * (rho_m - rho_m.T)        # symmetrize away roundoff
    coeff = 1.0 if half_rho else 2.0
    xi0 = model.act(frame.point)
    total = -coeff * rho_m - 0.5 * flat_inner(xi0, xi0) * km.J
    return curvature_from_rho(total, km, tol=1e-6).entries


@dataclass(frozen=True, eq=False)
class PropositionPointReport:
    point: np.ndarray
    residual: float
    control_residual: float
    fd_scale: float
    frame_conditioning: float   # deviation of the frame Gram from identity


@dataclass(frozen=True, eq=False)
class PropositionReport:
    model: ConeModel
    fd_step: float
    points: tuple[PropositionPointReport, ...]

    @property
    def max_residual(self) -> float:
        return max(r.residual for r in self.points)

    @property
    def min_control_ratio(self) -> float:
        return min(r.control_residual / max(r.residual, 1e-300) for r in self.points)

    def to_dict(self) -> dict:
        return {
            "fd_step": self.fd_step,
            "max_residual": self.max_residual,
            "min_control_ratio": self.min_control_ratio,
            "points": [
                {"residual": r.residual, "control_residual": r.control_residual,
                 "fd_scale": r.fd_scale, "frame_conditioning": r.frame_conditioning}
                for r in self.points
            ],
        }


def verify_curvature_prop(model: ConeModel, sample_points: int = 6, fd_step: float = STEP,
                          seed: int = 0) -> PropositionReport:
    """Finite-difference curvature of the quotient chart vs the rho~ template.

    The sample_points section points are drawn by seeded sampling on Sigma.
    Each report entry carries the relative residual of the matched template
    and of the half-coefficient negative control.
    """
    reports = []
    for p in sigma_sample(model, seed, sample_points):
        frame = contact_frame(p, model)
        chart = quotient_chart(frame)
        R_fd = riemann(chart, np.zeros(frame.count), fd_step)
        scale = float(np.abs(R_fd).max())
        R_t = curvature_template_at(frame, half_rho=True)
        R_bad = curvature_template_at(frame, half_rho=False)
        resid = float(np.abs(R_fd - R_t).max() / max(scale, 1e-300))
        control = float(np.abs(R_fd - R_bad).max() / max(scale, 1e-300))
        cond = float(np.abs(frame.metric_gram() - np.eye(frame.count)).max())
        reports.append(PropositionPointReport(p, resid, control, scale, cond))
    return PropositionReport(model, fd_step, tuple(reports))
