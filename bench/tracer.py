"""Outside-in tracer: times calls into each dunklqm layer from benchmark code.

Installing the tracer rebinds, in every dunklqm module namespace, each public
function named in a module's ``__all__`` to a timing wrapper, plus the public
methods ``ReflOp.apply``, ``FirstOrderRefOp.compose``/``.apply`` and
``SecondOrderRefOp.apply``, and ``grid``'s bindings of the LAPACK drivers.
Nothing under ``src/`` is edited; ``uninstall`` restores every binding.

Every wrapped call is a span (group, start, end, parent span, job id). Spans
are kept in flat in-memory arrays and written when the run ends. A span's
self time is its duration minus the time covered by its child spans; the
per-layer metrics sum self time and calls per group.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import time

MODULES = ("cli", "spectra", "grid", "errata", "susyqm", "refcalc", "jacobi",
           "gegenbauer", "opalg", "exact")

# Span group of each wrapped public function; a module's functions that are
# not listed here fall in "<module>.other".
GROUPS = {
    "cli": {"main": "cli"},
    "grid": {
        **dict.fromkeys(("assemble", "supercharge_matrix",
                         "first_derivative_matrix", "reflection_matrix"),
                        "grid.assembly"),
        **dict.fromkeys(("eigen_lowest", "eigvals_all", "composite_spectrum",
                         "susy_squared_spectrum", "parity_blocks"),
                        "grid.banding"),
        **dict.fromkeys(("eig_banded", "eigh", "eigh_tridiagonal"),
                        "grid.lapack"),
        "checkerboard_fraction": "grid.filter",
        **dict.fromkeys(("extrapolate_sequence", "convergence_study"),
                        "grid.extrapolate"),
        "quadrature": "grid.quadrature",
        **dict.fromkeys(("apply_first_order", "apply_hamiltonian"),
                        "grid.stencil"),
    },
    "spectra": dict.fromkeys(("scarf_problem", "oscillator_problem",
                              "gegenbauer_problem"), "spectra.problem"),
    "errata": dict.fromkeys(("build_errata", "errata_json"), "errata"),
    "susyqm": {
        **dict.fromkeys(("verify_operator_relations", "generic_H_parts",
                         "scarf_H_parts_explicit"), "susyqm.relations"),
        **dict.fromkeys(("intertwiner", "verify_lowering", "verify_raising",
                         "gauged_supercharge", "supercharge_eigenvalue_scaled",
                         "bracket_n"), "susyqm.maps"),
        **dict.fromkeys(("osc_q_apply", "osc_h_apply", "osc_r_apply",
                         "osc_energy", "osc_mixed_state", "osc_wavefunction",
                         "hermite_superposition"), "susyqm.oscillator"),
    },
    "refcalc": dict.fromkeys(("FirstOrderRefOp.compose", "FirstOrderRefOp.apply",
                              "SecondOrderRefOp.apply"), "refcalc"),
    "jacobi": {
        **dict.fromkeys(("construct_oracle", "construct_eigen_raw", "lop",
                         "eigenvalue"), "jacobi.oracle"),
        "construct_gram": "jacobi.gram",
        "inner": "jacobi.inner",
        "construct_explicit": "jacobi.explicit",
        **dict.fromkeys(("norm_sq_closed", "norm_sq_from_normalization"),
                        "jacobi.norms"),
        "verify_family": "jacobi.verify",
    },
    "gegenbauer": {
        **dict.fromkeys(("construct_geg", "lop_geg", "eigenvalue_geg"),
                        "gegenbauer.oracle"),
        "construct_geg_gram": "gegenbauer.gram",
        "inner_geg": "gegenbauer.inner",
        **dict.fromkeys(("geg_potentials", "ground_factor"),
                        "gegenbauer.potentials"),
        **dict.fromkeys(("verify_family_geg", "csm_two_particle_check"),
                        "gegenbauer.verify"),
    },
    "opalg": {
        **dict.fromkeys(("matrix_on_basis", "mat_mul"), "opalg.matrix"),
        "solve_monic_eigenvector": "opalg.solve",
        "ReflOp.apply": "opalg.apply",
    },
    "exact": {
        "pochhammer": "exact.pochhammer",
        **dict.fromkeys(("hyp_eval", "hyp2f1", "hyp3f2"), "exact.hyp"),
    },
}

# Problem.compute closures built by the spectra problem constructors.
COMPUTE_GROUP = "spectra.compute"

# The per-layer metrics a traced run reports: (name, unit).
SELF_GROUPS = (
    "grid.assembly", "grid.banding", "grid.lapack", "grid.filter",
    "grid.extrapolate", "grid.quadrature", "grid.stencil", "spectra.compute",
    "spectra.problem", "refcalc", "susyqm.relations", "susyqm.maps",
    "susyqm.oscillator", "susyqm.other", "errata", "cli", "jacobi.gram",
    "jacobi.inner", "jacobi.oracle", "jacobi.explicit", "jacobi.norms",
    "jacobi.verify", "gegenbauer.gram", "gegenbauer.inner", "gegenbauer.oracle",
    "gegenbauer.potentials", "gegenbauer.verify", "opalg.matrix", "opalg.solve",
    "opalg.apply", "opalg.other", "exact.pochhammer", "exact.hyp", "exact.other")
CALL_GROUPS = (
    "grid.assembly", "grid.lapack", "grid.quadrature", "spectra.compute",
    "jacobi.gram", "jacobi.inner", "gegenbauer.gram", "gegenbauer.inner",
    "opalg.matrix", "opalg.solve", "opalg.apply", "jacobi.oracle",
    "gegenbauer.oracle", "exact.pochhammer")
COUNTERS = (("grid.dense_bytes", "B"), ("grid.lapack.eigvec_calls", "count"),
            ("grid.lapack.eigs_requested", "count"),
            ("grid.filter.scanned", "count"), ("grid.filter.discarded", "count"))


def metric_units() -> dict[str, str]:
    units = {f"{g}.self_s": "s" for g in SELF_GROUPS}
    units.update({f"{g}.calls": "count" for g in CALL_GROUPS})
    units.update(dict(COUNTERS))
    units["grid.filter.kept_ratio"] = "ratio"
    units.update({f"{m}.errors": "count" for m in MODULES})
    return units


def _lapack_request(name: str, args: tuple, kwargs: dict) -> tuple[bool, int]:
    """(eigenvectors requested, number of eigenvalues requested)."""
    a = args[0] if args else kwargs.get("a_band", kwargs.get("a", kwargs.get("d")))
    n = len(a) if name in ("eigh", "eigh_tridiagonal") else a.shape[-1]
    vectors = not kwargs.get("eigvals_only", False)
    lo_hi = kwargs.get("subset_by_index")
    if lo_hi is None and kwargs.get("select") == "i":
        lo_hi = kwargs.get("select_range")
    count = n if lo_hi is None else int(lo_hi[1]) - int(lo_hi[0]) + 1
    return vectors, count


class Tracer:
    """Span recorder. ``install`` wraps the layers; ``job`` sets the job id."""

    def __init__(self):
        self.groups: list[str] = []
        self.group_index: dict[str, int] = {}
        self.modules: list[str] = []          # module of each group
        # One entry per span, in the order spans end.
        self.s_group = array.array("H")
        self.s_start = array.array("d")
        self.s_end = array.array("d")
        self.s_parent = array.array("q")
        self.s_job = array.array("l")
        self.s_id = array.array("q")
        self.next_id = 0
        self.stack: list[list] = []           # [span id, group, child time]
        self.job_id = -1
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters = {name: 0 for name, _ in COUNTERS}
        self.errors = {m: 0 for m in MODULES}
        self._restore: list[tuple] = []

    def _gid(self, group: str) -> int:
        gid = self.group_index.get(group)
        if gid is None:
            gid = self.group_index[group] = len(self.groups)
            self.groups.append(group)
            self.modules.append(group.split(".")[0])
            self.calls[group] = 0
            self.self_s[group] = 0.0
        return gid

    def span(self, group: str, fn, post=None):
        """Wrap ``fn`` so each call records a span in ``group``."""
        gid = self._gid(group)
        module = self.modules[gid]
        stack = self.stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, gid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or self.modules[parent[1]] != module:
                    self.errors[module] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                self.calls[group] += 1
                self.self_s[group] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                self.s_group.append(gid)
                self.s_start.append(t0)
                self.s_end.append(t1)
                self.s_parent.append(-1 if parent is None else parent[0])
                self.s_job.append(self.job_id)
                self.s_id.append(span_id)
            if post is not None:
                post(result, args, kwargs)
            return result

        return traced

    # -- hooks computing layer counts from arguments and results ------------

    def _dense(self, result, args, kwargs):
        m = getattr(result, "matrix", result)
        if getattr(m, "ndim", 0) == 2:
            self.counters["grid.dense_bytes"] += 8 * m.shape[0] * m.shape[1]

    def _filter(self, result, args, kwargs):
        self.counters["grid.filter.scanned"] += 1
        if result >= 0.5:
            self.counters["grid.filter.discarded"] += 1

    def _lapack(self, name):
        def post(result, args, kwargs):
            vectors, count = _lapack_request(name, args, kwargs)
            self.counters["grid.lapack.eigvec_calls"] += vectors
            self.counters["grid.lapack.eigs_requested"] += count
        return post

    def _problem(self, fn):
        """Problem constructor whose returned Problem has a traced compute."""
        import dataclasses

        def build(*args, **kwargs):
            prob = fn(*args, **kwargs)
            return dataclasses.replace(
                prob, compute=self.span(COMPUTE_GROUP, prob.compute))
        return functools.wraps(fn)(build)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"dunklqm.{m}") for m in MODULES}
        mods["dunklqm"] = importlib.import_module("dunklqm")
        replace: dict[int, object] = {}
        for name, mod in mods.items():
            if name == "dunklqm":
                continue
            groups = GROUPS.get(name, {})
            public = list(getattr(mod, "__all__", ())) or list(groups)
            for attr in public:
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                group = groups.get(attr, f"{name}.other")
                post = self._dense if group == "grid.assembly" else (
                    self._filter if attr == "checkerboard_fraction" else None)
                if name == "spectra":
                    fn_wrapped = self.span(group, self._problem(fn))
                else:
                    fn_wrapped = self.span(group, fn, post)
                replace[id(fn)] = (fn, fn_wrapped)
        grid = mods["grid"]
        for attr in ("eig_banded", "eigh", "eigh_tridiagonal"):
            fn = getattr(grid, attr)
            self._rebind(grid, attr, self.span("grid.lapack", fn,
                                               self._lapack(attr)))
        for mod_name, cls_name, meth in (
                ("opalg", "ReflOp", "apply"),
                ("refcalc", "FirstOrderRefOp", "compose"),
                ("refcalc", "FirstOrderRefOp", "apply"),
                ("refcalc", "SecondOrderRefOp", "apply")):
            cls = getattr(mods[mod_name], cls_name)
            group = GROUPS[mod_name][f"{cls_name}.{meth}"]
            self._rebind(cls, meth, self.span(group, cls.__dict__[meth]))
        # Rebind every module-level binding of each wrapped function, since
        # modules import each other's functions by name.
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebind(mod, attr, hit[1])

    def _rebind(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out = {f"{g}.self_s": self.self_s.get(g, 0.0) for g in SELF_GROUPS}
        out.update({f"{g}.calls": self.calls.get(g, 0) for g in CALL_GROUPS})
        out.update(self.counters)
        scanned = self.counters["grid.filter.scanned"]
        out["grid.filter.kept_ratio"] = (
            (scanned - self.counters["grid.filter.discarded"]) / scanned
            if scanned else 0.0)
        out.update({f"{m}.errors": n for m, n in self.errors.items()})
        return out

    def write(self, path: str) -> None:
        """Spans as JSON columns; times are perf_counter seconds."""
        with open(path, "w") as fh:
            json.dump({"groups": self.groups,
                       "columns": ["id", "group", "start", "end", "parent", "job"],
                       "id": self.s_id.tolist(), "group": self.s_group.tolist(),
                       "start": self.s_start.tolist(), "end": self.s_end.tolist(),
                       "parent": self.s_parent.tolist(),
                       "job": self.s_job.tolist()}, fh)
