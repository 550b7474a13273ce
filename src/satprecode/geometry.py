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


def boresight_angle_deg(bore: np.ndarray, targ: np.ndarray) -> np.ndarray:
    """Angle between one boresight vector (3,) and target vectors (..., 3).

    Both vectors point from the satellite to the ground, so callers that
    test many boresights against the same targets convert the targets
    once.
    """
    bu = bore / np.linalg.norm(bore)
    # atan2 of the rejection/projection pair stays accurate at tiny angles,
    # where arccos of a rounded dot product does not. The cross product
    # targ x bu is filled component by component: the same arithmetic as
    # np.cross without its broadcasting set-up.
    cross = np.empty(np.shape(targ))
    cross[..., 0] = targ[..., 1] * bu[2] - targ[..., 2] * bu[1]
    cross[..., 1] = targ[..., 2] * bu[0] - targ[..., 0] * bu[2]
    cross[..., 2] = targ[..., 0] * bu[1] - targ[..., 1] * bu[0]
    sin_part = np.linalg.norm(cross, axis=-1)
    cos_part = targ @ bu
    return np.degrees(np.arctan2(sin_part, cos_part))


def boresight_angles_deg(bores: np.ndarray, targ: np.ndarray) -> np.ndarray:
    """Angles between each of B boresight vectors (B, 3) and targets, in one
    pass: row b holds boresight b against the shared targets (M, 3), or
    against its own targets ``targ[b]`` when `targ` is (B, M, 3).

    The projection is an elementwise sum rather than `boresight_angle_deg`'s
    BLAS product, so an angle may differ from that one in the last bit;
    use this where only a comparison with a threshold is read.
    """
    bu = bores / np.linalg.norm(bores, axis=-1, keepdims=True)
    bx, by, bz = bu[:, None, 0], bu[:, None, 1], bu[:, None, 2]
    tx, ty, tz = targ[..., 0], targ[..., 1], targ[..., 2]
    c0 = ty * bz - tz * by
    c1 = tz * bx - tx * bz
    c2 = tx * by - ty * bx
    return np.degrees(np.arctan2(np.sqrt(c0 * c0 + c1 * c1 + c2 * c2),
                                 tx * bx + ty * by + tz * bz))


def elevation_deg(sat_pos: np.ndarray, lat_deg, lon_deg,
                  earth_radius_m: float) -> np.ndarray:
    """Satellite elevation above the local horizon at ground points."""
    ground = latlon_to_ecef(lat_deg, lon_deg, earth_radius_m)
    to_sat = sat_pos - ground
    up = ground / np.linalg.norm(ground, axis=-1, keepdims=True)
    sin_el = np.sum(to_sat * up, axis=-1) / np.linalg.norm(to_sat, axis=-1)
    return np.degrees(np.arcsin(np.clip(sin_el, -1.0, 1.0)))
