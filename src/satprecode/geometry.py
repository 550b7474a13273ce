"""Spherical-Earth / geostationary satellite geometry.

Ground positions are (latitude, longitude) pairs in degrees. Cartesian
coordinates are ECEF-like with the x axis through (lat 0, lon 0) and the
z axis through the north pole, in meters.
"""

from __future__ import annotations

import numpy as np


def latlon_to_ecef(lat_deg, lon_deg, radius_m: float) -> np.ndarray:
    """Convert ground coordinates on a sphere of `radius_m` to Cartesian.

    Accepts scalars or arrays; returns an array of shape (..., 3).
    """
    lat = np.radians(np.asarray(lat_deg, dtype=float))
    lon = np.radians(np.asarray(lon_deg, dtype=float))
    cos_lat = np.cos(lat)
    return radius_m * np.stack(
        (cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)), axis=-1
    )


def geo_satellite_position(longitude_deg: float, height_m: float,
                           earth_radius_m: float) -> np.ndarray:
    """Cartesian position of a geostationary satellite at `longitude_deg`."""
    lon = np.radians(longitude_deg)
    r = earth_radius_m + height_m
    return np.array([r * np.cos(lon), r * np.sin(lon), 0.0])


def off_axis_deg(x, y, z, bu: np.ndarray, proj) -> np.ndarray:
    """Off-axis angles, in degrees, of targets from unit boresights.

    `x`, `y` and `z` are the target components, arrays of one shape; the
    components ``bu[..., i]`` of the unit boresights `bu` (..., 3)
    broadcast against them, and so does `proj`, the targets' projections
    on the boresights. Callers form the projection: a BLAS product where
    an angle must match one from ``targ @ bu``, an elementwise sum where
    only a threshold is read.

    atan2 of the rejection/projection pair stays accurate at tiny angles,
    where arccos of a rounded dot product does not. The rejection is the
    norm of the cross product targ x bu, its squared components summed in
    x, y, z order: the arithmetic of ``np.linalg.norm(np.cross(targ, bu),
    axis=-1)``, bit for bit, in three buffers of the result's shape.
    """
    bx, by, bz = bu[..., 0], bu[..., 1], bu[..., 2]
    rej = y * bz
    tmp = z * by
    rej -= tmp
    rej *= rej
    part = z * bx
    np.multiply(x, bz, out=tmp)
    part -= tmp
    part *= part
    rej += part
    np.multiply(x, by, out=part)
    np.multiply(y, bx, out=tmp)
    part -= tmp
    part *= part
    rej += part
    np.sqrt(rej, out=rej)
    np.arctan2(rej, proj, out=rej)
    return np.degrees(rej, out=rej)


def boresight_angles_deg(bores: np.ndarray, targ: np.ndarray) -> np.ndarray:
    """Angles between each of B boresight vectors (B, 3) and targets, in one
    pass: row b holds boresight b against the shared targets (M, 3), or
    against its own targets ``targ[b]`` when `targ` is (B, M, 3).

    The projection is an elementwise sum rather than a BLAS product, so
    an angle may differ in the last bit from the sampler's and the gain
    matrix's; use this where only a comparison with a threshold is read.
    """
    bu = (bores / np.linalg.norm(bores, axis=-1, keepdims=True))[:, None]
    bx, by, bz = bu[..., 0], bu[..., 1], bu[..., 2]
    tx, ty, tz = targ[..., 0], targ[..., 1], targ[..., 2]
    return off_axis_deg(tx, ty, tz, bu, tx * bx + ty * by + tz * bz)


def elevation_deg(sat_pos: np.ndarray, lat_deg, lon_deg,
                  earth_radius_m: float) -> np.ndarray:
    """Satellite elevation above the local horizon at ground points."""
    ground = latlon_to_ecef(lat_deg, lon_deg, earth_radius_m)
    to_sat = sat_pos - ground
    up = ground / np.linalg.norm(ground, axis=-1, keepdims=True)
    sin_el = np.sum(to_sat * up, axis=-1) / np.linalg.norm(to_sat, axis=-1)
    return np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))
