"""Multibeam downlink channel model.

The channel matrix is the entrywise product of a real gain matrix (link
budget, feed radiation pattern) and a unit-modulus phase
matrix. Rows are stacked beam-major: row ``k*Q + q`` belongs to user q of
beam k. All objects are immutable after construction and hold no memo:
each design computes the other-beam Gram spectra it needs when it runs,
from `linalg.other_gram_tails`, the one function for one channel and for
a stack of channels or gateway views.

The feed radiation pattern is a synthetic circular tapered-aperture model
``a(theta) = G_max * |2*J1(u)/u|**2`` with ``u = k_a * sin(theta)``,
calibrated so the pattern is exactly 3 dB below peak at the configured
beam radius. The peak gain follows the uniform-aperture relation
``G_max = k_a**2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import j1

from . import geometry
from .exceptions import ConfigError, GeometryError
from .linalg import _other_rows

__all__ = [
    "LinkBudget",
    "BeamLayout",
    "UserSet",
    "PhaseModel",
    "ChannelMatrix",
    "PerturbationBounds",
    "hex_layout",
    "beam_contours",
    "place_users",
    "build_gain_matrix",
    "build_phase_matrix",
    "assemble_channel",
    "extract_users",
    "perturb_channel",
]

BOLTZMANN = 1.380649e-23

# Argument of |2*J1(u)/u|**2 at the -3 dB point: the root of
# (2*J1(u)/u)**2 = 10**-0.3 on [1, 2], as scipy.optimize.brentq finds it.
# A literal, so importing the package does not import scipy.optimize.
_U_HALF = 1.6137411963693684

# Candidate contour half-widths in ground degrees: 1e-3 doubled 39 times
# (doubling is exact, so these equal the steps of an iterated search).
_HALFWIDTH_STEPS = 1e-3 * 2.0 ** np.arange(40)

# Rejection attempts `place_users` draws in one call while each attempt
# draws 16 points.
_WINDOW = 4

# Rows of the gain matrix one block holds while `build_gain_matrix` takes
# its angles and pattern.
_GAIN_ROWS = 256


@dataclass(frozen=True)
class LinkBudget:
    """User-link budget of a geostationary multibeam system.

    `receiver_noise_temp_k` may be omitted, in which case it is derived
    from ``g_over_t_db`` and ``user_antenna_gain_db``. When both are given
    they must agree: G/T = gain - 10*log10(T_R).
    """

    satellite_longitude_deg: float = 10.0
    satellite_height_m: float = 35_786_000.0
    earth_radius_m: float = 6_378_137.0
    carrier_freq_hz: float = 20e9
    bandwidth_hz: float = 500e6
    rolloff: float = 0.25
    user_antenna_gain_db: float = 41.7
    g_over_t_db: float = 17.68
    receiver_noise_temp_k: float | None = None

    def __post_init__(self):
        positive = {
            "satellite_height_m": self.satellite_height_m,
            "earth_radius_m": self.earth_radius_m,
            "carrier_freq_hz": self.carrier_freq_hz,
            "bandwidth_hz": self.bandwidth_hz,
        }
        for name, value in positive.items():
            if not value > 0.0:
                raise ConfigError(f"{name} must be strictly positive, got {value!r}")
        if not 0.0 <= self.rolloff < 1.0:
            raise ConfigError(f"rolloff must lie in [0, 1), got {self.rolloff!r}")
        derived = 10.0 ** ((self.user_antenna_gain_db - self.g_over_t_db) / 10.0)
        if self.receiver_noise_temp_k is None:
            object.__setattr__(self, "receiver_noise_temp_k", derived)
        else:
            if self.receiver_noise_temp_k <= 0.0:
                raise ConfigError("receiver_noise_temp_k must be strictly positive")
            got = self.user_antenna_gain_db - 10.0 * math.log10(self.receiver_noise_temp_k)
            if abs(got - self.g_over_t_db) > 0.02:
                raise ConfigError(
                    "receiver_noise_temp_k inconsistent with g_over_t_db: "
                    f"gain - 10*log10(T_R) = {got:.3f} dB/K vs {self.g_over_t_db} dB/K"
                )

    @property
    def wavelength_m(self) -> float:
        return 299_792_458.0 / self.carrier_freq_hz

    @property
    def noise_amplitude(self) -> float:
        """sqrt(K_B * T_R * B_W); the channel is normalized by this term."""
        return math.sqrt(BOLTZMANN * self.receiver_noise_temp_k * self.bandwidth_hz)

    def satellite_position(self) -> np.ndarray:
        return geometry.geo_satellite_position(
            self.satellite_longitude_deg, self.satellite_height_m, self.earth_radius_m
        )


@dataclass(frozen=True)
class BeamLayout:
    """Beam centers, feed boresights and the reuse-4 coloring.

    Feed boresights are stored beam-major: feeds ``k*F .. (k+1)*F - 1``
    belong to beam k, so N = K*F.
    """

    beam_centers: np.ndarray          # (K, 2) lat, lon degrees
    feed_boresights: np.ndarray       # (N, 2)
    feeds_per_beam: int
    beam_radius_3db_deg: float
    color_of_beam: np.ndarray         # (K,) ints in {0,1,2,3}

    def __post_init__(self):
        centers = np.asarray(self.beam_centers, dtype=float)
        feeds = np.asarray(self.feed_boresights, dtype=float)
        colors = np.asarray(self.color_of_beam, dtype=int)
        object.__setattr__(self, "beam_centers", centers)
        object.__setattr__(self, "feed_boresights", feeds)
        object.__setattr__(self, "color_of_beam", colors)
        if centers.ndim != 2 or centers.shape[1] != 2 or centers.shape[0] < 1:
            raise ConfigError("beam_centers must be a (K, 2) array with K >= 1")
        if self.feeds_per_beam < 1:
            raise ConfigError("feeds_per_beam must be >= 1")
        if feeds.shape != (centers.shape[0] * self.feeds_per_beam, 2):
            raise ConfigError("feed_boresights must be (K*feeds_per_beam, 2)")
        if self.beam_radius_3db_deg <= 0.0:
            raise ConfigError("beam_radius_3db_deg must be strictly positive")
        if colors.shape != (centers.shape[0],) or colors.min() < 0 or colors.max() > 3:
            raise ConfigError("color_of_beam must hold one color in {0,1,2,3} per beam")
        for a in (centers, feeds, colors):
            a.flags.writeable = False

    @property
    def beams(self) -> int:
        return self.beam_centers.shape[0]

    @property
    def feeds(self) -> int:
        return self.feed_boresights.shape[0]

    def validate_geometry(self, budget: LinkBudget) -> None:
        """Check visibility and the reuse-4 coloring against actual angles.

        No two beams whose center separation (angle at the satellite) is
        below twice the beam radius may share a color. Every center is
        converted to a satellite-to-ground vector once and all (K, K)
        separations are taken in one `geometry.boresight_angles_deg` pass;
        a clash names the lowest beam k that has one, then its lowest
        partner.
        """
        sat = budget.satellite_position()
        elev = geometry.elevation_deg(
            sat, self.beam_centers[:, 0], self.beam_centers[:, 1], budget.earth_radius_m
        )
        if np.any(elev <= 0.0):
            bad = int(np.argmin(elev))
            raise GeometryError(f"beam {bad} center is below the horizon")
        to_center = geometry.latlon_to_ecef(
            self.beam_centers[:, 0], self.beam_centers[:, 1], budget.earth_radius_m
        ) - sat
        sep = geometry.boresight_angles_deg(to_center, to_center)
        clash = ((sep < 2.0 * self.beam_radius_3db_deg)
                 & (self.color_of_beam[:, None] == self.color_of_beam))
        np.fill_diagonal(clash, False)
        if clash.any():
            k, other = np.argwhere(clash)[0]
            raise ConfigError(
                f"beams {k} and {other} are closer than twice the beam radius "
                "but share a color"
            )


def _hex_spiral(count: int) -> list[tuple[int, int]]:
    """First `count` axial coordinates of a hexagonal spiral around (0, 0)."""
    coords = [(0, 0)]
    # Walk each ring from its western corner, six straight sides around.
    directions = [(1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)]
    ring = 1
    while len(coords) < count:
        a, b = -ring, ring
        for d in directions:
            for _ in range(ring):
                if len(coords) == count:
                    return coords
                coords.append((a, b))
                a, b = a + d[0], b + d[1]
        ring += 1
    return coords


def hex_layout(beams: int, center_lat: float, center_lon: float,
               beam_radius_3db_deg: float, spacing_deg: float,
               feeds_per_beam: int = 1,
               budget: LinkBudget | None = None) -> BeamLayout:
    """Hexagonal-lattice beam layout around a coverage center.

    `spacing_deg` is the center-to-center distance between adjacent beams
    in ground latitude degrees; longitude offsets are stretched by
    1/cos(lat) so the lattice is approximately isometric on the ground.
    Colors follow the lattice parity pattern (reuse 4). When `budget` is
    given the resulting layout is validated against the actual satellite
    geometry.

    For multiple feeds per beam the boresights sit on a small ring around
    the beam center (a triangle for F=3); a single feed points at the
    center itself.
    """
    if beams < 1:
        raise ConfigError("beams must be >= 1")
    if spacing_deg <= 0.0:
        raise ConfigError("spacing_deg must be strictly positive")
    coords = _hex_spiral(beams)
    centers = np.empty((beams, 2))
    colors = np.empty(beams, dtype=int)
    cos_lat = math.cos(math.radians(center_lat))
    for i, (a, b) in enumerate(coords):
        x = spacing_deg * (a + 0.5 * b)
        y = spacing_deg * (math.sqrt(3.0) / 2.0) * b
        centers[i] = (center_lat + y, center_lon + x / cos_lat)
        colors[i] = (a % 2) + 2 * (b % 2)

    if feeds_per_beam == 1:
        feeds = centers.copy()
    else:
        ring = 0.35 * spacing_deg
        offsets = np.array(
            [
                (
                    ring * math.cos(2.0 * math.pi * f / feeds_per_beam),
                    ring * math.sin(2.0 * math.pi * f / feeds_per_beam) / cos_lat,
                )
                for f in range(feeds_per_beam)
            ]
        )
        feeds = (centers[:, None, :] + offsets[None, :, :]).reshape(-1, 2)

    layout = BeamLayout(
        beam_centers=centers,
        feed_boresights=feeds,
        feeds_per_beam=feeds_per_beam,
        beam_radius_3db_deg=beam_radius_3db_deg,
        color_of_beam=colors,
    )
    if budget is not None:
        layout.validate_geometry(budget)
    return layout


@dataclass(frozen=True)
class UserSet:
    """Candidate user positions, a pool per beam."""

    positions: np.ndarray   # (K, pool, 2) lat, lon degrees

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", pos)
        if pos.ndim != 3 or pos.shape[2] != 2:
            raise ConfigError("positions must be a (K, pool, 2) array")
        pos.flags.writeable = False

    @property
    def beams(self) -> int:
        return self.positions.shape[0]

    def flat_positions(self) -> np.ndarray:
        return self.positions.reshape(-1, 2)


def beam_contours(layout: BeamLayout, budget: LinkBudget) -> tuple:
    """The layout-only inputs of `place_users`: each beam's sampling-box
    half-width in ground degrees (K,), and its center direction seen from
    the satellite, as a (K, 3) array.

    They depend on the layout and the link budget alone, so a Monte Carlo
    run works them out once and passes them to every trial.
    """
    sat = budget.satellite_position()
    centers = layout.beam_centers
    bores = geometry.latlon_to_ecef(
        centers[:, 0], centers[:, 1], budget.earth_radius_m
    ) - sat
    halfwidths = _ground_halfwidths_deg(
        sat, bores, centers, layout.beam_radius_3db_deg, budget.earth_radius_m
    )
    return halfwidths, bores


def place_users(layout: BeamLayout, q_sched: int, rng_seed,
                budget: LinkBudget | None = None,
                contours: tuple | None = None) -> UserSet:
    """Draw `q_sched` users uniformly inside each beam's 3 dB contour.

    The contour is the set of ground points whose off-axis angle from the
    beam center direction, seen from the satellite, is at most the beam
    radius. Sampling is by rejection from a bounding box; deterministic
    for a fixed seed. `contours` is `beam_contours(layout, budget)` when
    the caller has worked it out already.

    The stream contract: beam by beam, an attempt that still needs r
    users draws n = max(4r, 16) latitude offsets and then n longitude
    offsets, uniform on the box, and keeps its accepted points in order;
    a beam that needs more than 200 attempts raises GeometryError. While
    n is 16, `_WINDOW` attempts are drawn in one call, the same values as
    one call per attempt. When the beam fills before the window is used
    up, the unused draws are put back: the PCG64 state saved before the
    window is restored and advanced past the draws used, so the next beam
    starts where one call per attempt leaves the stream. A generator
    whose bit generator is not PCG64 draws one attempt per call.

    Each beam's unit boresight is taken once. Each call fills its points'
    satellite-to-ground vectors one component at a time, projects them on
    the boresight by one gemv over the (window, n, 3) vectors and takes
    their off-axis angles in one `geometry.off_axis_deg` pass: the angles
    of one `np.cross` form per attempt, bit for bit.
    """
    if q_sched < 1:
        raise ConfigError("q_sched must be >= 1")
    budget = budget or LinkBudget()
    sat = budget.satellite_position()
    sat_col = sat[:, None, None]
    rng = np.random.default_rng(rng_seed)
    bit_gen = rng.bit_generator
    window_size = _WINDOW if isinstance(bit_gen, np.random.PCG64) else 1
    radius = layout.beam_radius_3db_deg
    earth_radius = budget.earth_radius_m

    if contours is None:
        contours = beam_contours(layout, budget)
    halfwidths, bores = contours
    positions = np.empty((layout.beams, q_sched, 2))
    for k in range(layout.beams):
        lat0, lon0 = layout.beam_centers[k]
        half = halfwidths[k]
        cos_lat = math.cos(math.radians(lat0))
        if cos_lat <= 0.0:
            raise GeometryError(f"beam {k} center at the pole is unsupported")
        # The norm of the 1-D vector is a BLAS dot; a norm along an axis
        # may round differently.
        bu = bores[k] / np.linalg.norm(bores[k])
        got = 0
        attempts = 0
        while got < q_sched:
            n_draw = max(4 * (q_sched - got), 16)
            window = window_size if n_draw == 16 else 1
            if window > 1:
                saved = bit_gen.state
            # Row i holds attempt i's latitude offsets, then its longitude
            # offsets.
            box = rng.uniform(-half, half, 2 * n_draw * window).reshape(
                window, 2, n_draw)
            lat = lat0 + box[:, 0]
            lon = box[:, 1] / cos_lat
            lon += lon0
            # The satellite-to-ground vectors, filled one contiguous
            # component at a time: the arithmetic of
            # `geometry.latlon_to_ecef` without its stack. The projections
            # are the gemv `targ @ bu` on the C-contiguous (window, n, 3)
            # copy, the product one call per attempt makes.
            comps = np.empty((3, window, n_draw))
            x, y, z = comps
            rad_lat = np.radians(lat)
            rad_lon = np.radians(lon)
            cos_rad_lat = np.cos(rad_lat)
            np.cos(rad_lon, out=x)
            x *= cos_rad_lat
            np.sin(rad_lon, out=y)
            y *= cos_rad_lat
            np.sin(rad_lat, out=z)
            comps *= earth_radius
            comps -= sat_col
            proj = comps.transpose(1, 2, 0).copy() @ bu
            ang = geometry.off_axis_deg(x, y, z, bu, proj)
            # The accepted points in attempt order, as many as the beam
            # still needs; the attempts used end with the last one taken.
            taken = (ang.ravel() <= radius).nonzero()[0][:q_sched - got]
            full = got + taken.size == q_sched
            used = int(taken[-1]) // n_draw + 1 if full else window
            if attempts + used > 200:
                raise GeometryError(
                    f"beam {k} contour accepts no samples (degenerate contour?)"
                )
            attempts += used
            positions[k, got:got + taken.size, 0] = lat.ravel()[taken]
            positions[k, got:got + taken.size, 1] = lon.ravel()[taken]
            got += taken.size
            if used < window:
                bit_gen.state = saved
                bit_gen.advance(2 * n_draw * used)
    return UserSet(positions=positions)


def _ground_halfwidths_deg(sat: np.ndarray, bores: np.ndarray,
                           centers: np.ndarray, radius_deg: float,
                           earth_radius_m: float) -> np.ndarray:
    """Half-widths (ground degrees) of boxes certain to cover each contour.

    For each beam center, the first step of the doubling sequence
    `_HALFWIDTH_STEPS` whose northward offset reaches the beam radius seen
    from the satellite; every beam and step is converted, and its (K, 40)
    off-axis angles taken, in one pass. `bores` (K, 3) holds the center
    directions seen from the satellite.
    """
    if radius_deg <= 0.0:
        raise GeometryError("beam radius must be strictly positive")
    lat0, lon0 = centers[:, 0], centers[:, 1]
    targs = geometry.latlon_to_ecef(
        lat0[:, None] + _HALFWIDTH_STEPS, lon0[:, None], earth_radius_m
    ) - sat
    reach = geometry.boresight_angles_deg(bores, targs) >= radius_deg
    closed = reach.any(axis=1)
    if not np.all(closed):
        bad = int(np.argmin(closed))
        raise GeometryError(
            f"beam {bad} contour does not close on the visible Earth"
        )
    # 1.6 margin covers the obliquity stretch of the footprint ellipse.
    return 1.6 * _HALFWIDTH_STEPS[np.argmax(reach, axis=1)]


def pattern_gain(theta_deg, radius_3db_deg: float):
    """Evaluate the aperture pattern at off-axis angles in degrees."""
    k_a = _U_HALF / math.sin(math.radians(radius_3db_deg))
    u = k_a * np.sin(np.radians(np.asarray(theta_deg, dtype=float)))
    safe = np.where(u == 0.0, 1.0, u)
    taper = np.where(u == 0.0, 1.0, (2.0 * j1(safe) / safe) ** 2)
    return k_a**2 * taper


def build_gain_matrix(layout: BeamLayout, users: UserSet,
                      budget: LinkBudget) -> np.ndarray:
    """Real gain matrix F = A*G of shape (K*pool, N).

    Entry (kq, n) is ``G_R * a_kqn / (4*pi*(d_kq/lambda) * sqrt(K_B*T_R*B_W))``:
    receive antenna amplitude gain, feed amplitude gain, spreading loss at
    the per-user slant range, all normalized to the receiver noise. The
    entries are amplitudes (the squared gains are the power gains), so the
    feed term is the square root of the power pattern.

    Users and feed boresights are each converted to satellite-to-ground
    vectors in one call, and the users' vectors give the slant ranges too.
    The matrix is then filled in blocks of `_GAIN_ROWS` rows, so the
    temporaries stay small at paper scale. In each block one gemv per feed
    projects the users on the feed's unit boresight
    (``bore / np.linalg.norm(bore)``), one
    `geometry.off_axis_deg` pass takes every feed's angles and one
    `pattern_gain` call their gains, and the amplitudes are finished in
    place. The angles are those of one ``targ @ bu`` product and one
    cross-product norm per feed, bit for bit.
    """
    if users.beams != layout.beams:
        raise ConfigError("users and layout disagree on the number of beams")
    sat = budget.satellite_position()
    flat = users.flat_positions()
    rows = flat.shape[0]
    targ = geometry.latlon_to_ecef(flat[:, 0], flat[:, 1],
                                   budget.earth_radius_m) - sat
    d = np.linalg.norm(targ, axis=-1)
    if np.any(d <= 0.0):
        raise GeometryError("nonpositive slant range")
    g_r = 10.0 ** (budget.user_antenna_gain_db / 20.0)
    denom = 4.0 * math.pi * (d / budget.wavelength_m) * budget.noise_amplitude
    x, y, z = targ.T.copy()
    feeds = layout.feed_boresights
    bores = geometry.latlon_to_ecef(feeds[:, 0], feeds[:, 1],
                                    budget.earth_radius_m) - sat
    # The norm of each 1-D boresight is a BLAS dot; a norm along an axis
    # may round differently.
    bu = np.array([bore / np.linalg.norm(bore) for bore in bores])
    gains = np.empty((rows, layout.feeds))
    # NumPy takes a one-row product by its dot path, not by gemv, so a
    # one-row tail joins the block before it.
    starts = list(range(0, rows, _GAIN_ROWS))
    if rows > 1 and rows - starts[-1] == 1:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [rows]):
        block = slice(start, stop)
        users_block = targ[block]
        # One product per feed: a (rows, 3) @ (3, N) product of all feeds
        # rounds differently.
        proj = np.empty((layout.feeds, users_block.shape[0]))
        for n in range(layout.feeds):
            np.matmul(users_block, bu[n], out=proj[n])
        amp = pattern_gain(
            geometry.off_axis_deg(x[block], y[block], z[block], bu[:, None],
                                  proj),
            layout.beam_radius_3db_deg)
        np.sqrt(amp, out=amp)
        amp *= g_r
        amp /= denom[block]
        gains[block] = amp.T
    return gains


@dataclass(frozen=True)
class PhaseModel:
    """Phase-variation model for the feed-to-user paths.

    `uniform` draws every entry phase independently; `ultra_stable` uses a
    common random phase per user plus a small Gaussian spread of
    `chi_deg` degrees (standard deviation) across feeds.
    """

    variant: str = "ultra_stable"
    chi_deg: float = 10.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.variant not in ("uniform", "ultra_stable"):
            raise ConfigError(f"unknown phase model variant {self.variant!r}")
        if self.chi_deg < 0.0:
            raise ConfigError("chi_deg must be >= 0")


def build_phase_matrix(model: PhaseModel, rows: int, feeds: int) -> np.ndarray:
    """Unit-modulus phase matrix of shape (rows, feeds)."""
    rng = np.random.default_rng(model.rng_seed)
    if model.variant == "uniform":
        theta = rng.uniform(0.0, 2.0 * math.pi, (rows, feeds))
    else:
        phi = rng.uniform(0.0, 2.0 * math.pi, (rows, 1))
        theta = rng.normal(0.0, math.radians(model.chi_deg), (rows, feeds))
        theta += phi    # the spread plus phi, without a third array
    # cos and sin written into the two halves of one complex array equal
    # np.exp(1j * theta) bit for bit, without its complex temporary.
    phase = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=phase.real)
    np.sin(theta, out=phase.imag)
    return phase


@dataclass(frozen=True)
class ChannelMatrix:
    """Complex channel matrix with beam-major row blocks.

    Row ``k*Q + q`` holds the path coefficients of user q in beam k; the
    received amplitude for a transmit vector x is ``h @ x``. The user
    channel vector of the rate formulas is the conjugate of the stored
    row, so inner products ``h_vec^H x`` equal ``row @ x``.
    """

    h: np.ndarray
    beams: int
    users_per_beam: int

    def __post_init__(self):
        h = np.asarray(self.h)
        if not np.iscomplexobj(h):
            h = h.astype(complex)
        object.__setattr__(self, "h", h)
        if h.ndim != 2 or h.shape[0] != self.beams * self.users_per_beam:
            raise ConfigError(
                f"channel must have K*Q = {self.beams * self.users_per_beam} rows, "
                f"got shape {h.shape}"
            )
        if not np.all(np.isfinite(h)):
            raise ConfigError("channel matrix contains non-finite entries")
        h.flags.writeable = False

    @property
    def feeds(self) -> int:
        return self.h.shape[1]

    def beam_rows(self, k: int) -> slice:
        q = self.users_per_beam
        return slice(k * q, (k + 1) * q)

    def beam(self, k: int) -> np.ndarray:
        """Q x N channel block of beam k."""
        return self.h[self.beam_rows(k)]

    def beam_blocks(self) -> np.ndarray:
        """(K, Q, N) view of `h` whose block k is ``beam(k)``."""
        return self.h.reshape(self.beams, self.users_per_beam, -1)


def assemble_channel(gain: np.ndarray, phase: np.ndarray, beams: int,
                     users_per_beam: int) -> ChannelMatrix:
    """Entrywise product of gain and phase matrices as a ChannelMatrix.

    A writable complex `phase` array is handed over: the product is formed
    in it, with no third matrix allocated, and the returned channel holds
    it read-only, so the caller must not use `phase` again. Any other
    `phase`, and `gain`, are left as they are.
    """
    gain = np.asarray(gain)
    phase = np.asarray(phase)
    if gain.shape != phase.shape:
        raise ConfigError(
            f"gain and phase shapes differ: {gain.shape} vs {phase.shape}"
        )
    if phase.dtype == complex and phase.flags.writeable:
        h = np.multiply(gain, phase, out=phase)
    else:
        h = gain * phase
    return ChannelMatrix(h=h, beams=beams, users_per_beam=users_per_beam)


def extract_users(pool: ChannelMatrix, members: np.ndarray) -> ChannelMatrix:
    """Channel of the served users only.

    `members` is a (K, Q) integer array of per-beam indices into each
    beam's pool rows.
    """
    members = np.asarray(members, dtype=int)
    if members.ndim != 2 or members.shape[0] != pool.beams:
        raise ConfigError("members must be a (K, Q) index array")
    return ChannelMatrix(
        h=_served_rows(pool.h, members), beams=pool.beams,
        users_per_beam=members.shape[1],
    )


def _served_rows(pool_rows: np.ndarray, members: np.ndarray) -> np.ndarray:
    """The served users' rows (K*Q, N), beam-major, gathered in one index
    from a pool's beam-major rows (K*pool, N): row k*Q + q is row
    `members[k, q]` of beam k's pool rows."""
    k, n = members.shape[0], pool_rows.shape[1]
    blocks = pool_rows.reshape(k, -1, n)
    return blocks[np.arange(k)[:, None], members].reshape(-1, n)


@dataclass(frozen=True)
class PerturbationBounds:
    """Norm bounds on a channel perturbation, per beam.

    `gamma_k` bounds ``||Delta_k||_F**2`` per beam and `gamma_tilde_k` is
    the complement sum over the other beams.
    """

    gamma_k: np.ndarray
    gamma_tilde_k: np.ndarray

    def __post_init__(self):
        gk = np.asarray(self.gamma_k, dtype=float)
        gt = np.asarray(self.gamma_tilde_k, dtype=float)
        for name, a in (("gamma_k", gk), ("gamma_tilde_k", gt)):
            object.__setattr__(self, name, a)
            if a.ndim != 1 or a.shape != gk.shape:
                raise ConfigError(f"{name} must be a length-K vector")
            if np.any(a < 0.0):
                raise ConfigError(f"{name} must be nonnegative")
            a.flags.writeable = False

    @property
    def beams(self) -> int:
        return self.gamma_k.shape[0]

    @classmethod
    def zero(cls, beams: int) -> "PerturbationBounds":
        z = np.zeros(beams)
        return cls(gamma_k=z, gamma_tilde_k=z.copy())

    @classmethod
    def from_delta(cls, delta: np.ndarray, beams: int,
                   users_per_beam: int) -> "PerturbationBounds":
        """Tight bounds realized by a concrete perturbation matrix.

        `delta` is (K*Q, N), beam-major. Each beam's squared Frobenius norm
        is one row sum over its Q*N entries, and each complement one row
        sum over the other K-1 norms in beam order, so the identity
        ``gamma_tilde_k[k] == np.sum(np.delete(gamma_k, k))`` is exact.
        """
        delta = np.asarray(delta)
        if delta.ndim != 2 or delta.shape[0] != beams * users_per_beam:
            raise ConfigError("delta must have K*Q rows")
        gamma_k = np.sum(np.abs(delta.reshape(beams, -1)) ** 2, axis=1)
        others = _other_rows(beams, 1, np.arange(beams))
        return cls(gamma_k=gamma_k, gamma_tilde_k=np.sum(gamma_k[others], axis=1))


def perturb_channel(ch: ChannelMatrix, ratio: float, rng_seed):
    """Additive complex-Gaussian perturbation scaled to a Frobenius ratio.

    Returns ``(perturbed_channel, delta)`` with
    ``||delta||_F = ratio * ||H||_F`` exactly. A caller that needs the
    tight per-beam bounds takes ``PerturbationBounds.from_delta(delta,
    ...)``.
    """
    if ratio < 0.0:
        raise ConfigError("ratio must be >= 0")
    if ratio == 0.0:
        return ch, np.zeros_like(ch.h)
    rng = np.random.default_rng(rng_seed)
    delta = rng.standard_normal(ch.h.shape) + 1j * rng.standard_normal(ch.h.shape)
    delta *= ratio * np.linalg.norm(ch.h) / np.linalg.norm(delta)
    perturbed = ChannelMatrix(
        h=ch.h + delta, beams=ch.beams, users_per_beam=ch.users_per_beam
    )
    return perturbed, delta
