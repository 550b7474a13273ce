"""In-memory span tracer that wraps satprecode's public functions.

A span is named ``<module>.<function>`` after the module that defines the
function. Installing the tracer replaces the function object under every
name that refers to it in any loaded ``satprecode`` module, so a caller
that imported the function into its own namespace (``evaluate`` imports
``two_stage`` from ``precoding``) resolves to the wrapper too. Uninstalling
puts every original object back.

Per span the tracer keeps the number of calls, the number of calls that
raised, the total wall time and the self time (wall time minus the wall
time of child spans entered on the same thread). A span whose function
is missing, because it was renamed or removed, is reported with zero
calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

# Layer boundaries measured by the traced run; ``cli.main`` is the root.
SPANS = (
    "cli.main",
    "config.parse_config",
    "evaluate.run_monte_carlo",
    "evaluate.sinr_matrix",
    "evaluate.beam_rate",
    "channel.place_users",
    "channel.build_gain_matrix",
    "channel.build_phase_matrix",
    "channel.assemble_channel",
    "channel.perturb_channel",
    "channel.extract_users",
    "grouping.group_users",
    "grouping.robust_group_users",
    "precoding.two_stage",
    "precoding.mbim_interbeam",
    "precoding.rzf_interbeam",
    "precoding.assemble",
    "precoding.baseline_avg_mmse",
    "precoding.baseline_four_color",
    "robust.robust_two_stage",
    "robust.derive_scalars",
    "robust.robust_interbeam",
    "gateway.share_csi",
    "gateway.assemble_multigateway_precoder",
    "linalg.eigh_sorted",
    "linalg.null_space",
    "io.write_results_csv",
)

PACKAGE = "satprecode"


class _Frame:
    __slots__ = ("child_s",)

    def __init__(self):
        self.child_s = 0.0


class Tracer:
    """Wraps the named spans while installed; use as a context manager."""

    def __init__(self, spans=SPANS):
        self.spans = tuple(spans)
        self.stats = {
            name: {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0}
            for name in self.spans
        }
        # Shapes seen at the channel boundaries, for the pool-size metrics.
        self.observed = {"pool_rows": 0, "pool_bytes": 0, "served_rows": 0}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched = []  # (namespace, attribute, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for span in self.spans:
                self._install_span(span)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patched:
            namespace, attr, original = self._patched.pop()
            setattr(namespace, attr, original)

    def _install_span(self, span: str) -> None:
        module_name, func_name = span.split(".", 1)
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            return
        original = getattr(module, func_name, None)
        if not callable(original):
            return
        wrapper = self._wrap(span, original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, span: str, func):
        stats = self.stats[span]
        observe = {
            "channel.assemble_channel": self._observe_pool,
            "channel.extract_users": self._observe_served,
        }.get(span)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = _Frame()
            stack.append(frame)
            raised = False
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].child_s += elapsed
                with self._lock:
                    stats["calls"] += 1
                    stats["errors"] += raised
                    stats["total_s"] += elapsed
                    stats["self_s"] += elapsed - frame.child_s
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _observe_pool(self, channel) -> None:
        h = channel.h
        with self._lock:
            self.observed["pool_rows"] = max(self.observed["pool_rows"], h.shape[0])
            self.observed["pool_bytes"] = max(self.observed["pool_bytes"], h.nbytes)

    def _observe_served(self, channel) -> None:
        with self._lock:
            self.observed["served_rows"] = max(
                self.observed["served_rows"], channel.h.shape[0]
            )
