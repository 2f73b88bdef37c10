"""Grid measures on the torus: mollification, perturbation, seminorms.

A :class:`GridMeasure` stores cell-averaged densities on a uniform G^d
grid; it is the computational stand-in for a smooth measure.  Transforms
are FFT-backed and only claimed up to the grid Nyquist band, and every
seminorm reports the frequency box it actually scanned.
"""

import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConstructionFailure, DegenerateOverlapError
from .torus import save_sidecar

__all__ = [
    "GridMeasure",
    "SeminormValue",
    "mollifier_density",
    "uniform_measure",
    "seminorm_diff",
    "perturb",
    "salem_iterate",
    "geometric_schedule",
]

_MAGIC = b"SFGM"
_OVERSAMPLE = 4  # mollifier sub-cells per axis averaged into one grid cell
_STAGE_SWEEP_C = 3.0  # bound constant of each salem_iterate stage's sweep


def _freq_box(d, xi_max):
    """All integer frequencies with 0 < |xi|_inf <= xi_max, plus |xi|_2."""
    ax = np.arange(-xi_max, xi_max + 1)
    grids = np.meshgrid(*[ax] * d, indexing="ij")
    xi = np.stack([g.reshape(-1) for g in grids], axis=1)
    xi = xi[np.any(xi != 0, axis=1)]
    return xi, np.sqrt((xi.astype(float) ** 2).sum(axis=1))


def _box_seminorm(mu, transform, lam, xi_max):
    """Max of |transform(xi)| * |xi|^(lam/2) over the box 0 < |xi|_inf <=
    xi_max of ``mu``'s grid (default: its Nyquist band), with the argmax."""
    if xi_max is None:
        xi_max = mu.nyquist
    xi_max = int(xi_max)
    if xi_max < 1:
        raise ValueError("xi_max must be >= 1")
    if xi_max > mu.nyquist:
        raise ValueError(f"xi_max {xi_max} exceeds the grid Nyquist band {mu.nyquist}")
    xi, norms = _freq_box(mu.d, xi_max)
    vals = np.abs(transform(xi)) * norms ** (lam / 2.0)
    k = int(np.argmax(vals))
    return SeminormValue(
        lam=float(lam),
        xi_max=xi_max,
        value=float(vals[k]),
        argmax=tuple(int(v) for v in xi[k]),
    )


@dataclass(frozen=True)
class SeminormValue:
    """A scanned-box seminorm: max over 0 < |xi| <= xi_max of |mu^(xi)|*|xi|^{lam/2}."""

    lam: float
    xi_max: int
    value: float
    argmax: tuple

    def to_dict(self):
        return {
            "lam": self.lam,
            "xi_max": self.xi_max,
            "value": self.value,
            "argmax": list(self.argmax),
        }


class GridMeasure:
    """Nonnegative cell-averaged density on the uniform G^d torus grid.

    Immutable after construction; the FFT of the cell masses is cached on
    first use and shared by transforms and seminorm scans.
    """

    def __init__(self, density):
        density = np.asarray(density, dtype=float)
        if density.ndim < 1:
            raise ValueError("density must be a G^d array")
        G = density.shape[0]
        if any(s != G for s in density.shape):
            raise ValueError("density grid must be square")
        if np.any(density < 0):
            raise ValueError("density must be nonnegative")
        self.density = density
        self.density.setflags(write=False)
        self.d = density.ndim
        self.G = G
        self._spectrum = None

    @property
    def mass(self):
        return float(self.density.mean())

    @property
    def nyquist(self):
        return self.G // 2

    @property
    def cell_volume(self):
        return self.G ** (-self.d)

    def _fft(self):
        if self._spectrum is None:
            self._spectrum = np.fft.fftn(self.density) * self.cell_volume
        return self._spectrum

    def transform(self, xi):
        """mu^(xi) = sum_c m_c exp(-2 pi i xi . center_c) for integer xi.

        Exact for the cell-center atomization of the grid; values beyond
        the Nyquist band alias and are not claimed.
        """
        xi = np.atleast_2d(np.asarray(xi, dtype=np.int64))
        if xi.shape[-1] != self.d:
            raise ValueError(f"frequencies must have dimension {self.d}")
        spec = self._fft()
        idx = tuple(np.mod(xi[..., j], self.G) for j in range(self.d))
        # cell centers sit at (c + 1/2)/G: correct the corner-based FFT phase
        phase = np.exp(-1j * math.pi * xi.sum(axis=-1) / self.G)
        return spec[idx] * phase

    def seminorm(self, lam, xi_max=None):
        """Scan the frequency box and return the seminorm with its argmax."""
        return _box_seminorm(self, self.transform, lam, xi_max)

    def save(self, path, provenance=None):
        """Flat binary: magic, d, G (LE int32), then row-major LE float64."""
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<ii", self.d, self.G))
            fh.write(self.density.astype("<f8").tobytes(order="C"))
        save_sidecar(path, {"mass": self.mass, "provenance": provenance or {}})

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != _MAGIC:
                raise ValueError(f"{path}: bad magic {magic!r}")
            header = fh.read(8)
            if len(header) != 8:
                raise ValueError(f"{path}: truncated header")
            d, G = struct.unpack("<ii", header)
            nbytes = os.fstat(fh.fileno()).st_size - 12
            # checked against the file's size before anything of size G^d
            # is allocated, and before G**d is formed for a d too large
            # for the file (G >= 2 needs G^d >= 2^d cells)
            too_long = G > 1 and d > nbytes.bit_length()
            if d < 1 or G < 1 or too_long or 8 * G**d != nbytes:
                raise ValueError(
                    f"{path}: header d={d}, G={G} does not match a {nbytes}-byte "
                    "density block (needs d >= 1, G >= 1 and 8 G^d bytes)"
                )
            data = np.frombuffer(fh.read(nbytes), dtype="<f8")
        return cls(data.reshape((G,) * d).astype(float))


def uniform_measure(G, d=1):
    """The uniform probability measure on the grid."""
    return GridMeasure(np.ones((G,) * d))


def _bump_profile(u):
    """Unnormalized radial profile exp(-1/(1 - (2.5 u)^2)) on |u| < 2/5."""
    u = np.asarray(u, dtype=float)
    s = (2.5 * u) ** 2
    out = np.zeros_like(u)
    inside = s < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - s[inside]))
    return out


def mollifier_density(r, G, d=1):
    """Cell-averaged smooth bump phi_r of radius r centered at the origin.

    phi(x) = c exp(-1/(1 - |2.5 x|^2)) for |x| < 2/5 and phi_r(x) =
    r^{-d} phi(x/r); each cell averages ``_OVERSAMPLE``^d sub-cells, and
    the grid normalization pins the mass to exactly 1.
    """
    r = float(r)
    if not 1.0 / G < r:
        raise ValueError(f"grid does not resolve the bump: need 1/G < r, got G={G}, r={r}")
    # oversampled cell averages of the radial profile
    sub = (np.arange(G * _OVERSAMPLE) + 0.5) / (G * _OVERSAMPLE)
    dist = np.minimum(sub, 1.0 - sub)  # torus distance to 0, per axis
    if d == 1:
        rad = dist
    else:
        grids = np.meshgrid(*[dist] * d, indexing="ij")
        rad = np.sqrt(sum(g**2 for g in grids))
    vals = _bump_profile(rad / r)
    # average _OVERSAMPLE^d sub-cells into each cell
    vals = vals.reshape(*(x for _ in range(d) for x in (G, _OVERSAMPLE)))
    axes = tuple(range(1, 2 * d, 2))
    cell = vals.mean(axis=axes)
    total = cell.mean()  # mass with unit c and the r^{-d} factor folded in
    if total <= 0:
        raise ValueError("bump vanished on the grid")
    return GridMeasure(cell / total)


def seminorm_diff(mu_a, mu_b, lam, xi_max=None):
    """Seminorm of the signed difference mu_a - mu_b over the scanned box."""
    if mu_a.G != mu_b.G or mu_a.d != mu_b.d:
        raise ValueError("measures must share a grid")
    return _box_seminorm(mu_a, lambda xi: mu_a.transform(xi) - mu_b.transform(xi), lam, xi_max)


def _rasterize(points, weights, G, d):
    """Deposit weighted atoms into their containing cells (mass array)."""
    cells = np.floor(points * G).astype(np.int64) % G
    mass = np.zeros((G,) * d)
    np.add.at(mass, tuple(cells[:, j] for j in range(d)), weights)
    return mass / weights.sum()


def perturb(mu0, config, gamma, xi_max=None):
    """One density step: f = eta * phi_r, rho = f mu0, mu = rho / mass(rho).

    eta is the normalized weighted atomic measure of the configuration,
    rasterized into grid cells; the convolution runs through the grid
    spectrum.  The mollification radius is max(config radius, 2/G) so the
    bump always spans at least two cells.

    Returns (mu, diagnostics); diagnostics record mass(rho), the seminorms
    entering the perturbation bound, the measured ratio K_d, and the
    triangle-inequality chain check.
    """
    if config.N == 0:
        raise ValueError("configuration is empty")
    if abs(mu0.mass - 1.0) > 1e-9:
        raise ValueError("mu0 must be a probability measure")
    G, d = mu0.G, mu0.d
    if config.d != d:
        raise ValueError("configuration and measure dimensions differ")
    r_eff = max(config.radius_r, 2.0 / G)
    phi = mollifier_density(r_eff, G, d)
    eta_mass = _rasterize(config.points, config.weights, G, d)
    # measure * density convolution: masses in, density out
    f = np.fft.ifftn(np.fft.fftn(eta_mass) * np.fft.fftn(phi.density)).real
    # FFT round-off leaves ~1e-16-relative droplets outside the true
    # support; clamp them so the support-containment invariant is exact
    f[f < 1e-12 * f.max()] = 0.0
    f_meas = GridMeasure(f)
    rho = f * mu0.density
    rho_meas = GridMeasure(rho)
    mass_rho = rho_meas.mass
    if mass_rho < 1e-6:
        raise DegenerateOverlapError(
            f"configuration support misses supp(mu0): mass(rho) = {mass_rho:.3g}"
        )
    mu = GridMeasure(rho / mass_rho)

    if xi_max is None:
        xi_max = mu0.nyquist
    norm_f = f_meas.seminorm(gamma, xi_max)
    norm_mu0_3d = mu0.seminorm(3.0 * d, xi_max)
    dev_rho = seminorm_diff(rho_meas, mu0, gamma, xi_max)
    dev_mu = seminorm_diff(mu, mu0, gamma, xi_max)
    norm_rho = rho_meas.seminorm(gamma, xi_max)
    denom = norm_mu0_3d.value * norm_f.value
    ratio = dev_rho.value / denom if denom > 0 else math.inf
    chain_rhs = abs(1.0 / mass_rho - 1.0) * norm_rho.value + dev_rho.value
    diagnostics = {
        "mass_rho": mass_rho,
        "r_eff": r_eff,
        "gamma": gamma,
        "xi_max": int(xi_max),
        "f_seminorm": norm_f.to_dict(),
        "mu0_seminorm_3d": norm_mu0_3d.to_dict(),
        "rho_deviation": dev_rho.to_dict(),
        "mu_deviation": dev_mu.to_dict(),
        "ratio_K": ratio,
        "triangle_chain_ok": bool(dev_mu.value <= chain_rhs + 1e-9),
    }
    return mu, diagnostics


def geometric_schedule(params0, stages, factor=8.0):
    """Schedule of construction parameters with geometric radius decay.

    Stage radii satisfy r_{t+1} ~ r_t / factor by scaling the candidate
    count: M_t = ceil(M_0 * factor^{lam * t}).
    """
    if stages < 1:
        raise ValueError("need at least one stage")
    out = []
    for t in range(stages):
        M = int(math.ceil(params0.M * factor ** (params0.lam * t)))
        out.append(replace(params0, M=M, seed=params0.seed + t))
    return out


def _restrict_to_support(config, mu):
    """Drop configuration points outside supp(mu); renormalize weights."""
    G, d = mu.G, mu.d
    cells = np.floor(config.points * G).astype(np.int64) % G
    dens = mu.density[tuple(cells[:, j] for j in range(d))]
    keep = dens > 0
    if not keep.any():
        raise ConstructionFailure("no configuration points land in supp(mu)")
    pts = config.points[keep]
    ws = config.weights[keep]
    ws = ws * (len(pts) / ws.sum())
    from .sampler import WeightedConfiguration

    return WeightedConfiguration(
        points=pts,
        weights=ws,
        radius_r=config.radius_r,
        lam=config.lam,
        strata=[("supported", 0, len(pts))],
        provenance=dict(config.provenance, support_filtered=int((~keep).sum())),
    )


def salem_iterate(pattern, schedule, G, gamma):
    """Repeated density steps: build inside the current support, perturb.

    Starts from the uniform measure; each stage builds a configuration with
    the pattern's builder (``sampler.BUILDERS``), rejects the points that
    fall outside the current support, mollifies at that stage's radius and
    multiplies into the running measure.  The schedule must have strictly
    decreasing radii (see :func:`geometric_schedule` for the default
    factor-8 decay).

    Returns a list of per-stage records, each holding the measure, the
    exponential-sum sweep report (bound constant ``_STAGE_SWEEP_C``), the
    seminorm step between consecutive measures (the perturbation's
    ``mu_deviation``), and the perturbation diagnostics.
    """
    from .expsum import sweep
    from .sampler import BUILDERS, derive_radius

    radii = [derive_radius(p.M, p.lam) for p in schedule]
    if any(r1 >= r0 for r0, r1 in zip(radii, radii[1:])):
        raise ValueError("schedule radii must be strictly decreasing")
    mu = uniform_measure(G, pattern.d)
    trajectory = []
    for t, params in enumerate(schedule):
        try:
            raw = BUILDERS[pattern.kind](pattern, params)
            config = _restrict_to_support(raw, mu)
        except ConstructionFailure as exc:
            raise ConstructionFailure(f"stage {t}: {exc}") from exc
        mu_next, diag = perturb(mu, config, gamma)
        report = sweep(
            config.points,
            config.weights,
            lam=params.lam,
            C=_STAGE_SWEEP_C,
            delta=params.delta,
            kappa=params.kappa,
        )
        trajectory.append(
            {
                "stage": t,
                "measure": mu_next,
                "config": config,
                "sweep": report,
                "perturb": diag,
                "seminorm_step": dict(diag["mu_deviation"]),
                "radius": radii[t],
            }
        )
        mu = mu_next
    return trajectory
