"""Method-of-lines integration of the coupled metric/potential flow

    d/dt g = -2 Ric + 2 a1 du x du,      d/dt u = Lap u + b1 |du|^2 + b2 u,

the (a1, 0, b1, b2) family; (2, 0, 0, 0) is the harmonic-map coupled flow
and u == 0 reduces to Ricci flow.  Integration is ungauged explicit
(euler or rk4) on near-flat torus data at desk scale.  Every stage metric
passes the one SPD rule of ``MetricField``; its failure, or a non-finite
potential on the accepted state, aborts the run with a diagnostic snapshot.
A run holds its last state alone; each snapshot is read as it is recorded,
on the geometry its step built (``snapshots``, ``run``'s readers).  A flow
holds one accepted state: ``run`` and ``snapshots`` keep no reference to
the initial state once the flow has it, so it is freed when the first step
leaves it unless the caller keeps it.  A step holds one slope sum, in k1's
arrays, and one stage state and slope at a time; each accepted state's
geometry is released once the step's first slope is read.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .mesh import Grid, MetricField, SPDError, integrate
from .tensor import Geometry

DIAG_COLUMNS = ("t", "max_rm", "max_grad_u_sq", "min_Sg", "vol",
                "int_hess_sq_cum", "int_lap_u_sq", "int_sic_sq", "int_sic_p4",
                "int_rm_sq", "int_sm_sq")


@dataclass(frozen=True, init=False)
class FlowParams:
    """(a1, a2, b1, b2) of the generalized flow, stored reduced: the a2 term
    is exactly a shift of b1, so only (a1, b1 - a2, b2) is kept."""
    alpha1: float
    beta1: float
    beta2: float

    def __init__(self, alpha1: float, alpha2: float = 0.0, beta1: float = 0.0,
                 beta2: float = 0.0):
        object.__setattr__(self, "alpha1", alpha1)
        object.__setattr__(self, "beta1", beta1 - alpha2)
        object.__setattr__(self, "beta2", beta2)


def is_regular(params: FlowParams, c0: float) -> bool:
    """Parameter condition guaranteeing a gradient bound for the potential.

    (i)  b2 <= 0 and a1 >= b1^2;
    (ii) b2 >  0 and b2/c0 + b1^2 >= a1 > b1^2,
    with c0 = max |grad u_0|^2 of the initial data.
    """
    if not c0 > 0:
        raise ValueError("c0 must be positive")
    a1, b1, b2 = params.alpha1, params.beta1, params.beta2
    if b2 <= 0:
        return a1 >= b1 * b1
    return (b2 / c0 + b1 * b1 >= a1) and (a1 > b1 * b1)


@dataclass(frozen=True)
class FlowState:
    grid: Grid
    metric: MetricField
    u: np.ndarray
    t: float = 0.0
    step_count: int = 0


class BlowUpError(RuntimeError):
    def __init__(self, msg, state=None):
        super().__init__(msg)
        self.state = state


def _geometry(state: FlowState, params: FlowParams) -> Geometry:
    """The geometry of ``state`` at the flow parameters, with its time."""
    return Geometry(state.metric, state.u, params.alpha1, params.beta1,
                    params.beta2, t=state.t)


def flow_rhs(geo: Geometry):
    """Right-hand sides (dg/dt, du/dt) at a state's geometry (``_geometry``),
    which holds the flow parameters."""
    du = geo.du
    gdot = -2.0 * geo.ric + 2.0 * geo.alpha1 * np.einsum("i...,j...->ij...", du, du)
    udot = geo.lap_u + geo.beta1 * geo.grad_sq + geo.beta2 * geo.u
    return gdot, udot


def cfl_dt(geo: Geometry, safety: float) -> float:
    """Parabolic step bound dt = safety * min h^2 / (4 n max(1, |Rm|, |Hess u|))
    at a state's geometry."""
    if not 0 < safety <= 1:
        raise ValueError("safety must lie in (0, 1]")
    grid = geo.grid
    mrm = float(np.sqrt(np.max(geo.rm_sq)))
    mh = float(np.sqrt(np.max(geo.hess_sq)))
    hmin = min(grid.spacing)
    return safety * hmin * hmin / (4.0 * grid.n * max(1.0, mrm, mh))


def _advance(state: FlowState, gdot, udot, dt) -> FlowState:
    return FlowState(state.grid, MetricField(state.grid, state.metric.values + dt * gdot),
                     state.u + dt * udot, state.t + dt, state.step_count + 1)


def step(state: FlowState, params: FlowParams, dt: float,
         method: str = "rk4", k1=None) -> FlowState:
    """One explicit step; every stage metric passes ``MetricField``'s SPD rule
    and u is checked finite on the accepted state.  ``k1`` is the slope
    (dg/dt, du/dt) at ``state`` when the caller already has it; rk4 sums
    (k1 + 2 k2 + 2 k3 + k4) / 6 into k1's arrays (a given ``k1`` receives
    the sum) and drops each stage's slope once the next stage state is formed."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown method {method!r}")
    try:
        gdot, udot = k1 if k1 is not None else flow_rhs(_geometry(state, params))
        if method == "rk4":     # summed in that order; a += w*b rounds as a + w*b
            kg, ku = gdot, udot
            for c, w in ((0.5, 2), (0.5, 2), (1.0, 1)):
                stage, kg, ku = _advance(state, kg, ku, c * dt), None, None
                kg, ku = flow_rhs(_geometry(stage, params))
                udot += w * ku
                gdot += w * kg
                del stage
            gdot /= 6.0
            udot /= 6.0
        new = _advance(state, gdot, udot, dt)
    except SPDError as e:
        raise BlowUpError(f"metric lost positive definiteness at t={state.t + dt:.6g}: {e}",
                          state=state) from e
    if not np.all(np.isfinite(new.u)):
        raise BlowUpError(f"potential u not finite at t={new.t:.6g}", state=state)
    return new


@dataclass(frozen=True)
class Schedule:
    t_end: float
    dt: float | None = None          # None: fixed dt from the initial CFL bound
    safety: float = 0.5
    cadence: int = 1                 # snapshot every ``cadence`` steps
    method: str = "rk4"
    diagnostics: bool = True

    def __post_init__(self):
        # each message starts with the field it rejects
        if not self.t_end > 0:
            raise ValueError(f"t_end must be positive, got {self.t_end!r}")
        if self.dt is not None and not self.dt > 0:
            raise ValueError(f"dt must be positive or None, got {self.dt!r}")
        if not 0 < self.safety <= 1:
            raise ValueError(f"safety must lie in (0, 1], got {self.safety!r}")
        if not self.cadence >= 1:
            raise ValueError(f"cadence must be at least 1, got {self.cadence!r}")
        if self.method not in ("euler", "rk4"):
            raise ValueError(f"method must be 'euler' or 'rk4', got {self.method!r}")


def step_plan(t_end: float, dt: float) -> tuple[int, bool]:
    """(number of steps, whether the last is shortened) from 0 to ``t_end``:
    whole steps of dt, then one shortened step onto t_end, unless t_end/dt
    is within 1e-9 (relative) of an integer."""
    ratio = t_end / dt
    whole = int(round(ratio))
    short = abs(ratio - whole) > 1e-9 * ratio
    if short:
        whole = int(ratio)
    return whole + short, short


@dataclass
class Trajectory:
    params: FlowParams
    dt: float
    nsnap: int                                       # snapshots planned to t_end
    last: FlowState | None = None                    # the last recorded snapshot
    times: list = field(default_factory=list)        # every recorded snapshot's time
    diagnostics: dict = field(default_factory=dict)  # column -> list, per step
    read: dict = field(default_factory=dict)         # reader name -> its results but None
    aborted: str | None = None

    def record(self, state: FlowState):
        """Hold ``state`` as the last snapshot unless it is the one held."""
        if self.last is None or self.last.step_count != state.step_count:
            self.last = state
            self.times.append(state.t)

    @property
    def nsnapshots(self) -> int:
        return len(self.times)


def _diagnose(geo: Geometry, cum_hess: float, dt: float):
    """The diagnostics row of a state's geometry, reached by a step ``dt``."""
    m = geo.metric
    sic_sq = geo.sic_sq
    row = {
        "t": geo.t,
        "max_rm": float(np.sqrt(np.max(geo.rm_sq))),
        "max_grad_u_sq": float(np.max(geo.grad_sq)),
        "min_Sg": float(np.min(geo.S)),
        "vol": integrate(np.ones(geo.grid.shape), m),
        "int_hess_sq_cum": cum_hess + dt * integrate(geo.hess_sq, m),
        "int_lap_u_sq": integrate(geo.lap_u * geo.lap_u, m),
        "int_sic_sq": integrate(sic_sq, m),
        "int_sic_p4": integrate(sic_sq * sic_sq, m),
        "int_rm_sq": integrate(geo.rm_sq, m),
        "int_sm_sq": integrate(geo.sm_sq, m),
    }
    return row


def rm_lp_series(frames, p: float):
    """Time series of int |Rm|^p dV over ``frames``, snapshot geometries in time order.

    Monitored against the local L^p bound shape (functionals.lp_curvature_bound)
    with user-supplied constants; never asserted.
    """
    return [(f.t, integrate(f.rm_sq ** (p / 2.0), f.metric)) for f in frames]


def snapshots(initial_state: FlowState, params: FlowParams, schedule: Schedule):
    """Integrate to t_end, yielding (traj, geo) as each snapshot is recorded as
    ``traj.last``, with the geometry its step built; ``traj`` gathers per-step
    diagnostics, and an aborted run records its last accepted state unyielded.
    The generator holds one accepted state: ``initial_state`` goes once the
    first step leaves it and ``traj.last`` moves on, unless the caller keeps it."""
    # one geometry per accepted state, shared by its diagnostics row, the
    # initial step bound, the consumer and the first slope of the step leaving it
    geo = _geometry(initial_state, params)
    c0 = float(np.max(geo.grad_sq))
    if c0 > 0 and not is_regular(params, c0):
        warnings.warn("flow parameters are not regular; gradient bound not guaranteed",
                      RuntimeWarning)
    dt = (schedule.dt if schedule.dt is not None
          else cfl_dt(geo, schedule.safety))
    nsteps, short = step_plan(schedule.t_end, dt)
    t_end = initial_state.t + schedule.t_end
    traj = Trajectory(params, dt, -(-nsteps // schedule.cadence) + 1)
    state, h, cum_hess = initial_state, 0.0, 0.0
    del initial_state                   # the first step leaves it
    for k in range(nsteps + 1):         # k = 0 is the initial state
        if k:
            h = t_end - state.t if short and k == nsteps else dt
            k1, geo = flow_rhs(geo), None    # geo is not read again
            try:
                state = step(state, params, h, schedule.method, k1)
            except BlowUpError as e:
                traj.aborted = str(e)
                traj.record(e.state)    # the last accepted state, once
                return
            geo = _geometry(state, params)   # k1, now the slope sum, lives to the next k1
        if k % schedule.cadence == 0 or k == nsteps:
            traj.record(state)
            yield traj, geo
        if schedule.diagnostics:
            row = _diagnose(geo, cum_hess, h)
            cum_hess = row["int_hess_sq_cum"]
            for key, v in row.items():
                traj.diagnostics.setdefault(key, []).append(v)


def run(initial_state: FlowState, params: FlowParams, schedule: Schedule,
        readers=None) -> Trajectory:
    """Integrate to t_end (``snapshots``, which alone holds ``initial_state``
    once called).  ``readers`` maps names to callables reader(traj, geo),
    called on each snapshot yielded (``traj.last``, of ``traj.nsnap``
    planned); ``read[name]`` lists its results but None."""
    flow = snapshots(initial_state, params, schedule)
    del initial_state       # freed after the first step unless the caller keeps it
    for traj, geo in flow:
        for name, reader in (readers or {}).items():
            if (got := reader(traj, geo)) is not None:
                traj.read.setdefault(name, []).append(got)
        del geo         # not held through the next step
    return traj
