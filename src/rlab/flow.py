"""Method-of-lines integration of the coupled metric/potential flow

    d/dt g = -2 Ric + 2 a1 du x du,      d/dt u = Lap u + b1 |du|^2 + b2 u,

the (a1, 0, b1, b2) family; (2, 0, 0, 0) is the harmonic-map coupled flow
and u == 0 reduces to Ricci flow.  Integration is ungauged explicit
(euler or rk4) on near-flat torus data at desk scale.  Every stage metric
passes the one SPD rule of ``MetricField``; its failure, or a non-finite
potential on the accepted state, aborts the run with a diagnostic snapshot.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .mesh import Grid, MetricField, SPDError, integrate
from .tensor import CoupledGeometry, Geometry

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


def flow_rhs(state: FlowState, params: FlowParams, geo: Geometry | None = None):
    """Right-hand sides (dg/dt, du/dt).  ``geo`` is the cached geometry of
    ``state`` when the caller already has one."""
    geo = geo if geo is not None else Geometry(state.metric, state.u)
    du = geo.du
    gdot = -2.0 * geo.ric + 2.0 * params.alpha1 * np.einsum("i...,j...->ij...", du, du)
    udot = geo.lap_u + params.beta1 * geo.grad_sq + params.beta2 * state.u
    return gdot, udot


def cfl_dt(state: FlowState, safety: float,
           geo: Geometry | None = None) -> float:
    """Parabolic step bound dt = safety * min h^2 / (4 n max(1, |Rm|, |Hess u|))."""
    if not 0 < safety <= 1:
        raise ValueError("safety must lie in (0, 1]")
    grid = state.grid
    geo = geo if geo is not None else Geometry(state.metric, state.u)
    mrm = float(np.sqrt(np.max(geo.rm_sq)))
    mh = float(np.sqrt(np.max(geo.hess_sq)))
    hmin = min(grid.spacing)
    return safety * hmin * hmin / (4.0 * grid.n * max(1.0, mrm, mh))


def _advance(state: FlowState, gdot, udot, dt) -> FlowState:
    return FlowState(state.grid, MetricField(state.grid, state.metric.values + dt * gdot),
                     state.u + dt * udot, state.t + dt, state.step_count + 1)


def step(state: FlowState, params: FlowParams, dt: float,
         method: str = "rk4", geo: Geometry | None = None) -> FlowState:
    """One explicit step; every stage metric passes ``MetricField``'s SPD rule
    and u is checked finite on the accepted state.  The first stage reads
    ``geo``, the cached geometry of ``state``, when it is given."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown method {method!r}")
    try:
        gdot, udot = flow_rhs(state, params, geo)
        if method == "rk4":
            s2 = _advance(state, gdot, udot, 0.5 * dt)
            k2g, k2u = flow_rhs(s2, params)
            s3 = _advance(state, k2g, k2u, 0.5 * dt)
            k3g, k3u = flow_rhs(s3, params)
            s4 = _advance(state, k3g, k3u, dt)
            k4g, k4u = flow_rhs(s4, params)
            gdot = (gdot + 2 * k2g + 2 * k3g + k4g) / 6.0
            udot = (udot + 2 * k2u + 2 * k3u + k4u) / 6.0
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


class Frame(CoupledGeometry):
    """A snapshot's geometry at the trajectory's flow parameters, with its time."""

    def __init__(self, state: FlowState, params: FlowParams):
        super().__init__(state.metric, state.u, params.alpha1, params.beta1,
                         params.beta2)
        self.t = state.t


@dataclass
class Trajectory:
    grid: Grid
    params: FlowParams
    dt: float
    states: list = field(default_factory=list)       # recorded FlowStates, in time order
    diagnostics: dict = field(default_factory=dict)  # column -> list, per step
    aborted: str | None = None

    def record(self, state: FlowState):
        """Append ``state`` unless it is the last one recorded."""
        if not self.states or self.states[-1].step_count != state.step_count:
            self.states.append(state)

    def state(self, k: int) -> FlowState:
        return self.states[k]

    def frame(self, k: int) -> Frame:
        """The geometry of snapshot ``k`` at the trajectory's parameters."""
        return Frame(self.states[k], self.params)

    @property
    def times(self) -> list:
        return [s.t for s in self.states]

    @property
    def nsnapshots(self) -> int:
        return len(self.states)

    def diag_rows(self):
        cols = [self.diagnostics[c] for c in DIAG_COLUMNS]
        return list(zip(*cols))


def _diagnose(state: FlowState, params: FlowParams, cum_hess: float, dt: float,
              geo: CoupledGeometry | None = None):
    geo = (geo if geo is not None
           else CoupledGeometry(state.metric, state.u, params.alpha1))
    m = state.metric
    sic_sq = geo.sic_sq
    row = {
        "t": state.t,
        "max_rm": float(np.sqrt(np.max(geo.rm_sq))),
        "max_grad_u_sq": float(np.max(geo.grad_sq)),
        "min_Sg": float(np.min(geo.S)),
        "vol": integrate(np.ones(state.grid.shape), m),
        "int_hess_sq_cum": cum_hess + dt * integrate(geo.hess_sq, m),
        "int_lap_u_sq": integrate(geo.lap_u * geo.lap_u, m),
        "int_sic_sq": integrate(sic_sq, m),
        "int_sic_p4": integrate(sic_sq * sic_sq, m),
        "int_rm_sq": integrate(geo.rm_sq, m),
        "int_sm_sq": integrate(geo.sm_sq, m),
    }
    return row


def rm_lp_series(traj: Trajectory, p: float):
    """Time series of int |Rm|^p dV from the recorded snapshots.

    Monitored against the local L^p bound shape (functionals.lp_curvature_bound)
    with user-supplied constants; never asserted.
    """
    out = []
    for k in range(traj.nsnapshots):
        f = traj.frame(k)
        out.append((f.t, integrate(f.rm_sq ** (p / 2.0), f.metric)))
    return out


def run(initial_state: FlowState, params: FlowParams, schedule: Schedule) -> Trajectory:
    """Integrate to t_end, recording snapshots and per-step diagnostics."""
    # one geometry per accepted state, shared by its diagnostics row, the
    # initial step bound and the first stage of the step that leaves it
    geo = CoupledGeometry(initial_state.metric, initial_state.u, params.alpha1)
    c0 = float(np.max(geo.grad_sq))
    if c0 > 0 and not is_regular(params, c0):
        warnings.warn("flow parameters are not regular; gradient bound not guaranteed",
                      RuntimeWarning)
    dt = (schedule.dt if schedule.dt is not None
          else cfl_dt(initial_state, schedule.safety, geo))
    nsteps, short = step_plan(schedule.t_end, dt)
    t_end = initial_state.t + schedule.t_end
    traj = Trajectory(initial_state.grid, params, dt)
    state, h, cum_hess = initial_state, 0.0, 0.0
    for k in range(nsteps + 1):         # k = 0 is the initial state
        if k:
            h = t_end - state.t if short and k == nsteps else dt
            try:
                state = step(state, params, h, schedule.method, geo)
            except BlowUpError as e:
                traj.aborted = str(e)
                traj.record(e.state)    # the last accepted state, once
                break
            geo = CoupledGeometry(state.metric, state.u, params.alpha1)
        if k % schedule.cadence == 0 or k == nsteps:
            traj.record(state)
        if schedule.diagnostics:
            row = _diagnose(state, params, cum_hess, h, geo)
            cum_hess = row["int_hess_sq_cum"]
            for key, v in row.items():
                traj.diagnostics.setdefault(key, []).append(v)
    return traj
